// Package ipfrag models IPv4 fragmentation and reassembly.
//
// It implements the two pieces the defragmentation-poisoning attack of
// Herzberg & Shulman ("Fragmentation Considered Poisonous", CNS 2013) —
// which this paper reuses against Chronos' DNS-based pool generation —
// depends on:
//
//   - Split: fragmenting a transport payload at a path MTU, producing
//     fragments identified by the 16-bit IP Identification field;
//   - Reassembler: the receiver-side fragment cache, keyed by
//     (src, dst, protocol, ID), which will happily combine a genuine first
//     fragment with a *pre-planted spoofed* second fragment carrying the
//     same key.
//
// Overlapping fragments are resolved by a configurable policy (first-wins
// like classic BSD, or last-wins like Linux), because the attack literature
// distinguishes operating systems by exactly this behaviour.
//
// In the reproduction the attack flows through this package end to end:
// attack.DefragPoison plants the spoofed second fragment in the victim
// resolver's Reassembler, the authoritative nameserver's genuine response
// is Split at the forced path MTU (the PMTU-forcing probe of the §II
// study), and the reassembled packet — genuine first fragment, attacker
// payload, still passing the resolver's UDP checksum because the spoofed
// fragment compensates — is what the DNS layer parses. Fragments expire
// from the cache after a TTL, so the attacker's plant must land inside
// the window before the triggered query; the E5 fragmentation study
// measures exactly the population marginals (who fragments, who accepts,
// who is triggerable) that bound this attack's reach. The Split/
// Reassemble pair is fuzz-tested (fuzz_test.go) for round-trip safety on
// arbitrary payloads.
package ipfrag

import (
	"errors"
	"fmt"
	"time"
)

// FragmentUnit is the granularity of IPv4 fragment offsets: offsets are
// expressed in units of 8 bytes on the wire.
const FragmentUnit = 8

// IPHeaderSize is the size of an IPv4 header without options; a link MTU of
// M leaves M − IPHeaderSize bytes for each fragment's payload.
const IPHeaderSize = 20

// MinMTU is the minimum IPv4 MTU (RFC 791). The original fragmentation
// attacks against NTP required paths supporting fragmentation down to this
// value; the paper's measurement study probes resolvers at this size.
const MinMTU = 68

// Errors returned by Split. Reassembler.Insert reports the fragments it
// drops (misaligned, over the per-datagram limit) through its bool result.
var (
	ErrMTUTooSmall   = errors.New("ipfrag: mtu leaves no room for payload")
	ErrDatagramLimit = errors.New("ipfrag: reassembled datagram exceeds 65535 bytes")
)

// maxDatagram is the largest reassembled datagram IPv4 permits.
const maxDatagram = 65535

// FlowKey identifies a datagram being reassembled: IPv4 reassembly caches
// are keyed by source, destination, protocol and the 16-bit Identification
// field — nothing else. This weak identity is precisely what fragment
// injection exploits.
type FlowKey struct {
	Src   [4]byte
	Dst   [4]byte
	Proto uint8
	ID    uint16
}

// String implements fmt.Stringer for diagnostics.
func (k FlowKey) String() string {
	return fmt.Sprintf("%d.%d.%d.%d>%d.%d.%d.%d/p%d#%d",
		k.Src[0], k.Src[1], k.Src[2], k.Src[3],
		k.Dst[0], k.Dst[1], k.Dst[2], k.Dst[3], k.Proto, k.ID)
}

// Fragment is one IPv4 fragment of a transport-layer payload.
type Fragment struct {
	Key    FlowKey
	Offset int    // byte offset of Data within the original payload; multiple of 8
	More   bool   // the MF (more fragments) flag
	Data   []byte // fragment payload bytes
}

// IsWhole reports whether the fragment is actually an unfragmented datagram
// (offset zero, MF clear).
func (f Fragment) IsWhole() bool { return f.Offset == 0 && !f.More }

// Split fragments payload so that each fragment's payload fits in
// mtu − IPHeaderSize bytes, rounding non-final fragment sizes down to a
// multiple of 8 as IPv4 requires. A payload that already fits is returned
// as a single fragment with MF clear.
func Split(key FlowKey, payload []byte, mtu int) ([]Fragment, error) {
	room := mtu - IPHeaderSize
	if room < FragmentUnit {
		return nil, fmt.Errorf("%w: mtu=%d", ErrMTUTooSmall, mtu)
	}
	if len(payload) > maxDatagram {
		return nil, ErrDatagramLimit
	}
	if len(payload) <= room {
		return []Fragment{{Key: key, Offset: 0, More: false, Data: clone(payload)}}, nil
	}
	chunk := room - room%FragmentUnit
	frags := make([]Fragment, 0, len(payload)/chunk+1)
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		more := true
		if end >= len(payload) {
			end = len(payload)
			more = false
		}
		frags = append(frags, Fragment{
			Key:    key,
			Offset: off,
			More:   more,
			Data:   clone(payload[off:end]),
		})
	}
	return frags, nil
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// OverlapPolicy selects how a reassembler resolves bytes claimed by more
// than one fragment.
type OverlapPolicy int

const (
	// FirstWins keeps the bytes of the fragment that arrived first
	// (classic BSD reassembly). A pre-planted spoofed fragment therefore
	// beats the genuine one.
	FirstWins OverlapPolicy = iota + 1
	// LastWins lets later fragments overwrite earlier bytes (Linux-style).
	LastWins
)

// String implements fmt.Stringer.
func (p OverlapPolicy) String() string {
	switch p {
	case FirstWins:
		return "first-wins"
	case LastWins:
		return "last-wins"
	default:
		return fmt.Sprintf("OverlapPolicy(%d)", int(p))
	}
}

// Config parameterises a Reassembler.
type Config struct {
	Policy       OverlapPolicy // zero value defaults to FirstWins
	Timeout      time.Duration // fragment lifetime; zero defaults to 30s (RFC 791 suggests 15-30s)
	MaxDatagrams int           // max concurrent partial datagrams; zero defaults to 64
	MaxFragments int           // max fragments per datagram; zero defaults to 64

	// MinFragment drops non-final fragments whose payload is smaller
	// than this (0 accepts everything). It models stacks and middleboxes
	// that reject tiny fragments: the paper's measurement study found
	// 90 % of resolvers accept fragments of some size but only 64 %
	// accept the minimum-MTU (68-byte) fragments this field filters.
	MinFragment int

	// DropFragments rejects all fragmented traffic (the ~10 % of
	// resolvers that accept no fragments at all).
	DropFragments bool
}

func (c Config) withDefaults() Config {
	if c.Policy == 0 {
		c.Policy = FirstWins
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxDatagrams == 0 {
		c.MaxDatagrams = 64
	}
	if c.MaxFragments == 0 {
		c.MaxFragments = 64
	}
	return c
}

// span is a half-open covered byte range [lo, hi).
type span struct{ lo, hi int }

type partial struct {
	buf      []byte
	covered  []span
	spare    []span // double-buffer flipped with covered on each merge
	total    int    // total length, -1 until the final fragment is seen
	frags    int
	firstAt  time.Time
	arrivals int
}

// reset prepares a (possibly recycled) partial for a new datagram. The
// buffer is resliced, not zeroed: a datagram only completes once every
// byte of [0, total) has been copied in from some fragment, so stale bytes
// from a previous occupant can never surface in a returned payload.
func (p *partial) reset(now time.Time) {
	p.buf = p.buf[:0]
	p.covered = p.covered[:0]
	p.total = -1
	p.frags = 0
	p.arrivals = 0
	p.firstAt = now
}

// Reassembler is a receiver-side IPv4 fragment cache.
//
// Insert returns the reassembled payload once every byte of the datagram is
// covered and the total length is known. Reassembly deliberately performs
// no authenticity check beyond the FlowKey — that is the real protocol's
// (absent) security model and the attack surface under study.
//
// Reassembly is allocation-free in steady state: partial-datagram state
// (buffers and coverage spans) is recycled through a free-list when entries
// complete or expire. The payload Insert returns is therefore borrowed —
// valid only until the next call into the Reassembler — which matches how
// simnet's single-threaded event loop consumes it (the receiving handler
// runs to completion before any further packet can arrive).
//
// Every partial shares one timeout, so partials expire in the order their
// first fragments arrived: eviction pops expired partials off the front
// of an arrival-ordered queue instead of scanning the cache. That holds
// only while time does not go back, so the now passed to Insert and
// Evict must never decrease; simnet's clock guarantees it.
type Reassembler struct {
	cfg     Config
	pending map[FlowKey]*partial
	arrived []arrival  // one per partial started, oldest first; may be stale
	freed   []*partial // recycled partials ready for reuse
	retired *partial   // completed partial whose buf backs the last returned payload
	gapbuf  []span     // scratch for FirstWins gap copies
}

// arrival queues the partial started for key at firstAt. Once that
// partial has completed or been flushed, and perhaps been recycled, the
// arrival is stale: the cache holds no partial for key, or one that first
// arrived at another time. One that arrived at the same time expires with
// the arrival, which may stand for it.
type arrival struct {
	key     FlowKey
	firstAt time.Time
}

// NewReassembler returns a Reassembler with the given configuration.
func NewReassembler(cfg Config) *Reassembler {
	return &Reassembler{
		cfg:     cfg.withDefaults(),
		pending: make(map[FlowKey]*partial),
	}
}

// Pending reports the number of partially reassembled datagrams held.
func (r *Reassembler) Pending() int { return len(r.pending) }

// Insert adds a fragment observed at time now, which must not be earlier
// than any time previously passed to Insert or Evict. It returns (payload,
// true) when the fragment completes a datagram; the cache entry is then
// removed. Whole (unfragmented) datagrams pass straight through. The
// returned payload is borrowed: it is valid until the next call into the
// Reassembler, after which its backing buffer may be recycled.
func (r *Reassembler) Insert(now time.Time, f Fragment) ([]byte, bool) {
	if r.retired != nil {
		// The payload returned by the previous completing Insert is out of
		// its borrow window now; recycle its backing state.
		r.freed = append(r.freed, r.retired)
		r.retired = nil
	}
	if f.IsWhole() {
		return f.Data, true
	}
	if r.cfg.DropFragments {
		return nil, false
	}
	if f.More && len(f.Data)%FragmentUnit != 0 {
		return nil, false // malformed: silently dropped, like real stacks
	}
	if r.cfg.MinFragment > 0 && f.More && len(f.Data) < r.cfg.MinFragment {
		return nil, false
	}
	if f.Offset < 0 || f.Offset%FragmentUnit != 0 || f.Offset+len(f.Data) > maxDatagram {
		return nil, false
	}
	r.Evict(now)
	p, ok := r.pending[f.Key]
	if !ok {
		if len(r.pending) >= r.cfg.MaxDatagrams {
			return nil, false // cache full: drop, do not evict live entries
		}
		p = r.newPartial(now)
		r.pending[f.Key] = p
		r.arrived = append(r.arrived, arrival{f.Key, now})
	}
	if p.frags >= r.cfg.MaxFragments {
		return nil, false
	}
	p.frags++
	p.arrivals++

	end := f.Offset + len(f.Data)
	if !f.More {
		if p.total >= 0 && p.total != end {
			// Conflicting total length: keep the policy-preferred one.
			if r.cfg.Policy == LastWins {
				p.total = end
			}
		} else {
			p.total = end
		}
	}
	if end > len(p.buf) {
		// Grow in place: reslice within capacity, one make on real growth.
		// The grown region is deliberately not zeroed — see partial.reset.
		if end <= cap(p.buf) {
			p.buf = p.buf[:end]
		} else {
			c := 2 * cap(p.buf)
			if c < end {
				c = end
			}
			grown := make([]byte, end, c)
			copy(grown, p.buf)
			p.buf = grown
		}
	}
	r.write(p, f.Offset, f.Data)

	if p.total >= 0 && coversAll(p.covered, p.total) {
		out := p.buf[:p.total]
		delete(r.pending, f.Key)
		r.retired = p
		return out, true
	}
	return nil, false
}

// newPartial pops a recycled partial or allocates a fresh one.
func (r *Reassembler) newPartial(now time.Time) *partial {
	var p *partial
	if k := len(r.freed) - 1; k >= 0 {
		p = r.freed[k]
		r.freed[k] = nil
		r.freed = r.freed[:k]
	} else {
		p = &partial{buf: make([]byte, 0, 2048)}
	}
	p.reset(now)
	return p
}

// write copies data into the buffer respecting the overlap policy and
// updates the coverage spans.
func (r *Reassembler) write(p *partial, off int, data []byte) {
	lo, hi := off, off+len(data)
	if r.cfg.Policy == LastWins {
		copy(p.buf[lo:hi], data)
	} else {
		// FirstWins: only fill bytes not yet covered.
		r.gapbuf = appendGaps(r.gapbuf[:0], p.covered, lo, hi)
		for _, gap := range r.gapbuf {
			copy(p.buf[gap.lo:gap.hi], data[gap.lo-lo:gap.hi-lo])
		}
	}
	p.covered, p.spare = mergeSpan(p.spare[:0], p.covered, span{lo, hi}), p.covered
}

// Evict drops partial datagrams older than the configured timeout,
// recycling their state. now must not be earlier than any time previously
// passed to Insert or Evict.
func (r *Reassembler) Evict(now time.Time) {
	i := 0
	for ; i < len(r.arrived); i++ {
		a := r.arrived[i]
		p, ok := r.pending[a.key]
		if !ok || !p.firstAt.Equal(a.firstAt) {
			continue // stale
		}
		if now.Sub(a.firstAt) <= r.cfg.Timeout {
			break // it, and every partial queued after it, is live
		}
		r.freed = append(r.freed, p)
		delete(r.pending, a.key)
	}
	if i > 0 {
		r.arrived = append(r.arrived[:0], r.arrived[i:]...)
	}
}

// mergeSpan appends the union of sorted disjoint spans and s into out,
// coalescing neighbours, and returns out. The result is sorted by
// construction: spans strictly before s are emitted first, every span
// overlapping or touching s is absorbed into it, and s is emitted before
// the first span strictly after it.
func mergeSpan(out, spans []span, s span) []span {
	inserted := false
	for _, cur := range spans {
		switch {
		case cur.hi < s.lo:
			out = append(out, cur)
		case s.hi < cur.lo:
			if !inserted {
				out = append(out, s)
				inserted = true
			}
			out = append(out, cur)
		default: // overlap or adjacency: absorb
			if cur.lo < s.lo {
				s.lo = cur.lo
			}
			if cur.hi > s.hi {
				s.hi = cur.hi
			}
		}
	}
	if !inserted {
		out = append(out, s)
	}
	return out
}

// appendGaps appends the sub-ranges of [lo, hi) not covered by spans onto
// out and returns it.
func appendGaps(out, spans []span, lo, hi int) []span {
	cur := lo
	for _, s := range spans {
		if s.hi <= cur {
			continue
		}
		if s.lo >= hi {
			break
		}
		if s.lo > cur {
			out = append(out, span{cur, min(s.lo, hi)})
		}
		if s.hi > cur {
			cur = s.hi
		}
		if cur >= hi {
			return out
		}
	}
	if cur < hi {
		out = append(out, span{cur, hi})
	}
	return out
}

func coversAll(spans []span, total int) bool {
	if total == 0 {
		return true
	}
	return len(spans) == 1 && spans[0].lo <= 0 && spans[0].hi >= total
}

package chronos

import (
	"chronosntp/internal/clock"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// Population is a set of Chronos clients behind one resolver handle: they
// share a host, the handle and one resolved Config and Rule, and the pools
// they generate. The paper's amplification lever is that a poisoned
// resolver hands the same forged record set to every client behind it, so
// their pools converge on a few states; a population keeps each distinct
// pool once and moves its clients between these states.
//
// A pool state is immutable once a client holds it. Every absorbed
// response leaves an edge from the state it was absorbed into to the state
// it produced, keyed by the response's A-record addresses in order and,
// when it added entries, by the query index those entries carry. A client
// absorbs a response by following an existing edge, so the merge runs once
// per distinct state and response rather than once per client, and clients
// in the same state share one entry array.
//
// A Population is not safe for concurrent use: its clients must run on one
// simnet.Network, which already serialises them.
type Population struct {
	host   *simnet.Host
	stub   Lookuper
	rule   Rule // holds the resolved Config
	shared bool // false for New's population of one, whose state grows in place
	root   poolState
}

// NewPopulation builds an empty population of clients on host that resolve
// the pool through stub (nil when pools are seeded directly via SeedPool)
// under cfg, with cfg's defaults resolved.
func NewPopulation(host *simnet.Host, stub Lookuper, cfg Config) *Population {
	return &Population{host: host, stub: stub, rule: NewRule(cfg), shared: true}
}

// New adds a client with its own clock to the population. It starts with
// the empty pool.
func (p *Population) New(clk *clock.Clock) *Client {
	c := &Client{pop: p, clk: clk, state: &p.root}
	c.bind()
	return c
}

// poolState is one pool: entries in the order they joined. Its backing
// array is append-only and may be shared with the states grown from it,
// each of which sees a longer prefix; index locates the addresses of the
// whole array, so membership in this state is "indexed at a position
// below len(entries)".
type poolState struct {
	entries []PoolEntry
	index   []int32 // open addressing by address: position+1, 0 = empty slot
	// grown reports that a successor has been made from this state. The
	// first successor may append past entries in place; later ones copy.
	grown bool
	edges []poolEdge // responses absorbed from this state (shared populations)
}

// poolEdge records one absorbed response and the state it produced.
type poolEdge struct {
	hash  uint64   // addrHash of the response
	idx   int      // query index the added entries carry (unread when next is the source)
	addrs []uint32 // the response's A-record addresses, in order
	next  *poolState
}

// absorb merges an accepted response from pool query idx — rrs, holding
// at most count A records — into s and returns the resulting state. A
// population of one merges into s in place; a shared population follows
// the edge that already records the response, or merges into a new state
// and records the edge.
func (p *Population) absorb(s *poolState, rrs []dnswire.RR, count, idx int) *poolState {
	if !p.shared {
		p.merge(s, rrs, count, idx)
		return s
	}
	h := addrHash(rrs)
	for i := range s.edges {
		e := &s.edges[i]
		// Whether a response adds anything depends only on the state and
		// the addresses, so an edge back to s serves every query index.
		if e.hash == h && (e.next == s || e.idx == idx) && e.matches(rrs) {
			return e.next
		}
	}
	t := poolState{entries: s.entries, index: s.index, grown: s.grown}
	p.merge(&t, rrs, count, idx)
	next := s
	if len(t.entries) > len(s.entries) {
		// t appended past s's end of the array, or s's array was full or
		// grown already: either way s cannot grow in place again.
		s.grown = true
		next = &t
	}
	addrs := make([]uint32, 0, count)
	for i := range rrs {
		if rrs[i].Type == dnswire.TypeA {
			addrs = append(addrs, ipKey(rrs[i].A))
		}
	}
	s.edges = append(s.edges, poolEdge{hash: h, idx: idx, addrs: addrs, next: next})
	return next
}

// merge appends rrs' A records to s in order, skipping members, until the
// pool holds PoolTarget servers; count bounds how many records rrs can
// add.
func (p *Population) merge(s *poolState, rrs []dnswire.RR, count, idx int) {
	target := p.rule.cfg.PoolTarget
	seen := 0
	for i := range rrs {
		rr := &rrs[i]
		if rr.Type != dnswire.TypeA {
			continue
		}
		seen++
		ip := simnet.IP(rr.A)
		if s.has(ip) {
			continue
		}
		if target > 0 && len(s.entries) >= target {
			break
		}
		if s.grown || len(s.entries) == cap(s.entries) {
			// Size the new array for what this response can still add, not
			// a blind doubling: a saturated pool re-absorbing a record set
			// it already holds — the steady state once poisoning lands —
			// never gets here.
			need := len(s.entries) + 1 + (count - seen)
			if target > 0 && need > target {
				need = target
			}
			p.reserve(s, need)
		}
		s.add(ip, idx)
	}
}

// reserve moves s into a new array, with an index to match, of capacity
// n but never less than the expected benign harvest: PoolQueries
// rotations of a standard 4-record response.
func (p *Population) reserve(s *poolState, n int) {
	n = max(n, p.rule.cfg.PoolQueries*dnswire.BenignPoolResponseRecords)
	entries := make([]PoolEntry, 0, n)
	size := 8
	for size < 2*n {
		size *= 2
	}
	t := poolState{entries: entries, index: make([]int32, size)}
	for _, e := range s.entries {
		t.add(e.IP, e.QueryIdx)
	}
	s.entries, s.index, s.grown = t.entries, t.index, false
}

// slot returns where the index probe for ip starts.
func (s *poolState) slot(ip simnet.IP) int {
	return int((uint64(ipKey(ip))*0x9E3779B97F4A7C15)>>32) & (len(s.index) - 1)
}

// has reports whether ip is in the pool.
func (s *poolState) has(ip simnet.IP) bool {
	if len(s.index) == 0 {
		return false
	}
	array := s.entries[:cap(s.entries)]
	for i := s.slot(ip); s.index[i] != 0; i = (i + 1) & (len(s.index) - 1) {
		if pos := int(s.index[i]); array[pos-1].IP == ip {
			return pos <= len(s.entries)
		}
	}
	return false
}

// add appends an entry for an ip the pool does not hold. The caller has
// checked that s owns the end of its array and that the array has room;
// the index is sized to stay at most half full.
func (s *poolState) add(ip simnet.IP, idx int) {
	i := s.slot(ip)
	for s.index[i] != 0 {
		i = (i + 1) & (len(s.index) - 1)
	}
	s.entries = append(s.entries, PoolEntry{IP: ip, QueryIdx: idx})
	s.index[i] = int32(len(s.entries))
}

// addrHash is FNV-1a over a response's A-record addresses, in order.
func addrHash(rrs []dnswire.RR) uint64 {
	h := uint64(14695981039346656037)
	for i := range rrs {
		if rrs[i].Type == dnswire.TypeA {
			h = (h ^ uint64(ipKey(rrs[i].A))) * 1099511628211
		}
	}
	return h
}

// matches reports whether rrs carries exactly the edge's A-record
// addresses, in order.
func (e *poolEdge) matches(rrs []dnswire.RR) bool {
	j := 0
	for i := range rrs {
		if rrs[i].Type != dnswire.TypeA {
			continue
		}
		if j == len(e.addrs) || e.addrs[j] != ipKey(rrs[i].A) {
			return false
		}
		j++
	}
	return j == len(e.addrs)
}

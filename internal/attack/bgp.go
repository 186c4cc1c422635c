package attack

import (
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// BGPHijacker models the end effect of a BGP prefix hijack: the attacker
// becomes on-path for all traffic towards a victim prefix (the pool's
// nameservers). Installed as a network tap, it intercepts DNS queries
// heading into the prefix and answers them itself with the forged pool
// response — TXID, source port and question are all visible on-path, so no
// guessing is needed.
type BGPHijacker struct {
	net    *simnet.Network
	forge  *ResponseForge
	prefix simnet.IP
	bits   int
	active bool
	handle simnet.TapHandle
	cursor int

	// PerResponse, when positive, makes the hijacker mimic benign pool
	// behaviour: each answer carries only PerResponse addresses (rotating
	// through the malicious set) with the forge's TTL. This is the
	// stealth mode that defeats the §V mitigations — a 24-hour hijack
	// fills the entire pool with attacker servers using perfectly
	// policy-compliant responses.
	PerResponse int

	// Hijacked counts the DNS queries answered by the attacker.
	Hijacked uint64
	// Dropped counts non-DNS packets swallowed by the hijacked prefix.
	Dropped uint64
}

// NewBGPHijacker prepares a hijack of prefix/bits. Call Announce to start
// intercepting and Withdraw to stop.
func NewBGPHijacker(net *simnet.Network, forge *ResponseForge, prefix simnet.IP, bits int) *BGPHijacker {
	return &BGPHijacker{net: net, forge: forge, prefix: prefix, bits: bits}
}

// Announce installs the hijack tap ("announces the prefix").
func (h *BGPHijacker) Announce() {
	if h.active {
		return
	}
	h.active = true
	h.handle = h.net.AddTap(simnet.TapFunc(h.inspect))
}

// Withdraw removes the hijack.
func (h *BGPHijacker) Withdraw() {
	if !h.active {
		return
	}
	h.active = false
	h.handle.Remove()
}

// inspect intercepts packets to the hijacked prefix.
func (h *BGPHijacker) inspect(pkt simnet.Packet) simnet.Verdict {
	if !pkt.Dst.InPrefix(h.prefix, h.bits) {
		return simnet.Pass
	}
	if pkt.IsFragment() || pkt.Proto != simnet.ProtoUDP {
		h.Dropped++
		return simnet.Drop
	}
	srcPort, dstPort, payload, err := simnet.DecodeUDP(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil || dstPort != 53 {
		h.Dropped++
		return simnet.Drop
	}
	query, err := dnswire.Decode(payload)
	if err != nil || query.Response || len(query.Questions) != 1 {
		h.Dropped++
		return simnet.Drop
	}
	if dnswire.NormalizeName(query.Questions[0].Name) != dnswire.NormalizeName(h.forge.PoolName) ||
		query.Questions[0].Type != dnswire.TypeA {
		// Not the pool query: black-hole it. (A stealthier attacker
		// would proxy it; black-holing matches a plain prefix hijack.)
		h.Dropped++
		return simnet.Drop
	}
	var resp *dnswire.Message
	if h.PerResponse > 0 {
		resp = query.Reply()
		resp.Authoritative = true
		if sz, ok := query.EDNSSize(); ok {
			resp.SetEDNS(sz)
		}
		for i := 0; i < h.PerResponse && len(h.forge.Servers) > 0; i++ {
			ip := h.forge.Servers[h.cursor%len(h.forge.Servers)]
			h.cursor++
			resp.Answers = append(resp.Answers,
				dnswire.ARecord(h.forge.PoolName, h.forge.ttlSeconds(), [4]byte(ip)))
		}
	} else {
		forged, ferr := h.forge.Response(query)
		if ferr != nil {
			h.Dropped++
			return simnet.Drop
		}
		resp = forged
	}
	respBytes, err := resp.Encode()
	if err != nil {
		h.Dropped++
		return simnet.Drop
	}
	h.Hijacked++
	// Answer "from" the hijacked nameserver address: on-path spoofing.
	from := simnet.Addr{IP: pkt.Dst, Port: 53}
	to := simnet.Addr{IP: pkt.Src, Port: srcPort}
	datagram := simnet.EncodeUDP(from, to, respBytes)
	h.net.Inject(simnet.Packet{
		Src: pkt.Dst, Dst: pkt.Src, Proto: simnet.ProtoUDP,
		ID: pkt.ID + 1, Payload: datagram,
	}, time.Millisecond)
	return simnet.Drop
}

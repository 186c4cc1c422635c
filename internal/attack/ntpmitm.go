package attack

import (
	"time"

	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// MitMMove selects what the on-path NTP tamperer does to traffic
// crossing the victim prefix. These are the packet-level counterparts of
// the shiftsim.AuthModel moves E11 sweeps at engine speed; the tests in
// ntpmitm_test.go pin the same accept/reject/demobilize outcomes against
// the real chronos client and ntpauth stack.
type MitMMove int

// The authentication arms-race moves.
const (
	// MitMMACStrip rewrites every server reply to read "client clock +
	// Shift" and drops whatever credentials it carried — the classic
	// strip-and-tamper MitM. Clients that require authentication reject
	// the bare replies; clients that don't are marched off at Shift per
	// accepted round.
	MitMMACStrip MitMMove = iota
	// MitMForgeKoD swallows client requests and answers them with
	// unauthenticated DENY kisses. A KoD-compliant unauthenticated
	// client demobilizes the association for good; a require-auth
	// client ignores the kiss (RFC 8915 §5.7) and merely loses the
	// sample.
	MitMForgeKoD
	// MitMCookieReplay records the first authenticated reply per server
	// and answers every later request with that stale capture. The
	// origin/unique-identifier binding makes replays fail verification,
	// so the move degrades to starvation rather than a shift.
	MitMCookieReplay
)

// String implements fmt.Stringer.
func (m MitMMove) String() string {
	switch m {
	case MitMMACStrip:
		return "mac-strip"
	case MitMForgeKoD:
		return "forge-kod"
	case MitMCookieReplay:
		return "cookie-replay"
	default:
		return "MitMMove(?)"
	}
}

// NTPMitM is an on-path interceptor for NTP traffic of a victim server
// prefix (the end effect of the same BGP hijack BGPHijacker models,
// aimed at the time protocol instead of DNS). Installed as a network
// tap, it tampers per Move; everything that is not NTP to or from the
// prefix passes untouched.
type NTPMitM struct {
	net    *simnet.Network
	prefix simnet.IP
	bits   int
	move   MitMMove
	active bool
	handle simnet.TapHandle
	ipid   uint16

	// Shift is the per-reply clock advance MitMMACStrip serves (the
	// tamperer reads the client's clock off the echoed origin timestamp,
	// like the shiftsim strategies). 0 means 25 ms — the same sub-C2
	// step the greedy strategy uses.
	Shift time.Duration

	replays map[simnet.IP][]byte // MitMCookieReplay: first sealed reply per server

	// inflight holds the datagrams this MitM injected that have not yet
	// crossed the tap chain. Injected packets re-enter the taps exactly
	// like host transmissions, so without this guard a tampered reply
	// (Src inside the prefix, source port 123) would be intercepted and
	// re-tampered forever. Matched by backing-array identity: Inject
	// carries the slice through unchanged.
	inflight [][]byte

	// Counters.
	Tampered uint64 // replies stripped and rewritten
	Kisses   uint64 // forged DENY kisses injected
	Recorded uint64 // authenticated replies captured for replay
	Replayed uint64 // stale replies served in place of fresh ones
}

// NewNTPMitM prepares an NTP tamperer for prefix/bits. Call Announce to
// start intercepting and Withdraw to stop.
func NewNTPMitM(net *simnet.Network, prefix simnet.IP, bits int, move MitMMove) *NTPMitM {
	return &NTPMitM{
		net: net, prefix: prefix, bits: bits, move: move,
		replays: make(map[simnet.IP][]byte),
	}
}

// Active reports whether the tap is installed.
func (m *NTPMitM) Active() bool { return m.active }

// Announce installs the interception tap.
func (m *NTPMitM) Announce() {
	if m.active {
		return
	}
	m.active = true
	m.handle = m.net.AddTap(simnet.TapFunc(m.inspect))
}

// Withdraw removes the tap.
func (m *NTPMitM) Withdraw() {
	if !m.active {
		return
	}
	m.active = false
	m.handle.Remove()
}

// shift returns the effective MACStrip step.
func (m *NTPMitM) shift() time.Duration {
	if m.Shift != 0 {
		return m.Shift
	}
	return 25 * time.Millisecond
}

// inspect tampers NTP traffic crossing the victim prefix.
func (m *NTPMitM) inspect(pkt simnet.Packet) simnet.Verdict {
	if pkt.IsFragment() || pkt.Proto != simnet.ProtoUDP {
		return simnet.Pass
	}
	if m.own(pkt.Payload) {
		return simnet.Pass
	}
	switch m.move {
	case MitMForgeKoD:
		if !pkt.Dst.InPrefix(m.prefix, m.bits) {
			return simnet.Pass
		}
		srcPort, dstPort, payload, err := simnet.DecodeUDP(pkt.Src, pkt.Dst, pkt.Payload)
		if err != nil || dstPort != ntpwire.Port {
			return simnet.Pass
		}
		var req, kiss ntpwire.Packet
		if ntpwire.DecodeInto(&req, payload) != nil || req.Mode != ntpwire.ModeClient {
			return simnet.Pass
		}
		ntpauth.FillKoD(&kiss, ntpauth.KissDENY, &req, m.net.Now())
		m.Kisses++
		m.reply(pkt.Dst, pkt.Src, srcPort, kiss.Encode())
		return simnet.Drop // the server never sees the request

	case MitMMACStrip:
		clientPort, payload, ok := m.serverReply(pkt)
		if !ok {
			return simnet.Pass
		}
		var p ntpwire.Packet
		if ntpwire.DecodeInto(&p, payload) != nil || p.Mode != ntpwire.ModeServer {
			return simnet.Pass
		}
		// Read the client's clock off the echoed origin timestamp and
		// serve "client time + Shift": the client computes ≈ +Shift every
		// round, an unbounded march (the greedy plan, on the wire).
		delta := p.OriginTime.Time().Sub(p.ReceiveTime.Time()) + m.shift()
		p.ReceiveTime = ntpwire.TimestampFromTime(p.ReceiveTime.Time().Add(delta))
		p.TransmitTime = ntpwire.TimestampFromTime(p.TransmitTime.Time().Add(delta))
		m.Tampered++
		m.reply(pkt.Src, pkt.Dst, clientPort, p.Encode()) // bare 48 bytes: credentials dropped
		return simnet.Drop

	case MitMCookieReplay:
		clientPort, payload, ok := m.serverReply(pkt)
		if !ok {
			return simnet.Pass
		}
		if len(payload) <= ntpwire.PacketSize {
			return simnet.Pass // nothing authenticated to replay
		}
		if stale, seen := m.replays[pkt.Src]; seen {
			m.Replayed++
			m.reply(pkt.Src, pkt.Dst, clientPort, stale)
			return simnet.Drop
		}
		m.replays[pkt.Src] = append([]byte(nil), payload...)
		m.Recorded++
		return simnet.Pass // the first exchange is observed unmolested
	}
	return simnet.Pass
}

// own reports whether payload is a datagram this MitM injected itself,
// removing it from the in-flight set on match.
func (m *NTPMitM) own(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	for i, q := range m.inflight {
		if len(q) > 0 && &q[0] == &payload[0] {
			m.inflight = append(m.inflight[:i], m.inflight[i+1:]...)
			return true
		}
	}
	return false
}

// serverReply matches NTP replies leaving the victim prefix and returns
// the client's port and the NTP payload.
func (m *NTPMitM) serverReply(pkt simnet.Packet) (clientPort uint16, payload []byte, ok bool) {
	if !pkt.Src.InPrefix(m.prefix, m.bits) {
		return 0, nil, false
	}
	srcPort, dstPort, payload, err := simnet.DecodeUDP(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil || srcPort != ntpwire.Port {
		return 0, nil, false
	}
	return dstPort, payload, true
}

// reply injects payload as a spoofed server→client reply: on-path, the
// attacker answers from the victim server's own address.
func (m *NTPMitM) reply(server, client simnet.IP, clientPort uint16, payload []byte) {
	from := simnet.Addr{IP: server, Port: ntpwire.Port}
	to := simnet.Addr{IP: client, Port: clientPort}
	datagram := simnet.EncodeUDP(from, to, payload)
	m.inflight = append(m.inflight, datagram)
	m.ipid++
	m.net.Inject(simnet.Packet{
		Src: server, Dst: client, Proto: simnet.ProtoUDP,
		ID: m.ipid, Payload: datagram,
	}, time.Millisecond)
}

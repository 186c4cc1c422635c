package simnet

import (
	"fmt"

	"chronosntp/internal/ipfrag"
)

// Packet is an IPv4 packet (possibly a fragment) in flight. Payload holds
// the transport bytes carried by this fragment; for an unfragmented packet
// that is the whole UDP datagram (header included).
type Packet struct {
	Src     IP
	Dst     IP
	Proto   uint8
	ID      uint16 // IPv4 Identification, the fragment-match key
	Offset  int    // fragment byte offset (multiple of 8)
	More    bool   // MF flag
	Payload []byte
}

// IsFragment reports whether the packet is part of a fragmented datagram.
func (p Packet) IsFragment() bool { return p.Offset != 0 || p.More }

// FlowKey returns the reassembly key of the packet.
func (p Packet) FlowKey() ipfrag.FlowKey {
	return ipfrag.FlowKey{Src: [4]byte(p.Src), Dst: [4]byte(p.Dst), Proto: p.Proto, ID: p.ID}
}

// Fragment converts the packet into its ipfrag representation.
func (p Packet) Fragment() ipfrag.Fragment {
	return ipfrag.Fragment{Key: p.FlowKey(), Offset: p.Offset, More: p.More, Data: p.Payload}
}

// String implements fmt.Stringer for tracing.
func (p Packet) String() string {
	frag := ""
	if p.IsFragment() {
		frag = fmt.Sprintf(" frag[off=%d more=%v]", p.Offset, p.More)
	}
	return fmt.Sprintf("pkt %s->%s id=%d len=%d%s", p.Src, p.Dst, p.ID, len(p.Payload), frag)
}

// Verdict is a tap's decision about a packet.
type Verdict int

const (
	// Pass forwards the packet unchanged.
	Pass Verdict = iota + 1
	// Drop discards the packet.
	Drop
)

// Tap observes packets traversing the network. An on-path attacker —
// including one that obtained its position via a BGP prefix hijack — is a
// Tap: it drops what it intercepts and sends its own packets with Inject.
// A tap borrows pkt.Payload as a handler borrows its payload: the network
// may reclaim the buffer once the packet is delivered or dropped, so a tap
// that keeps the bytes must copy them.
type Tap interface {
	// Inspect is called once per packet before delivery scheduling.
	Inspect(pkt Packet) Verdict
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(pkt Packet) Verdict

// Inspect implements Tap.
func (f TapFunc) Inspect(pkt Packet) Verdict { return f(pkt) }

var _ Tap = TapFunc(nil)

package wirenet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
)

// ErrTimeout is returned by Exchange when no valid reply arrives within
// the query deadline.
var ErrTimeout = errors.New("wirenet: exchange timed out")

// Transport performs one client NTP exchange. UDPTransport speaks real
// sockets in real time; the conformance tests hold a Syncer over it to
// one over the simulator's exchange, chronos.Client.Query, which the
// experiments run. A Syncer is oblivious to which one it holds — that
// seam is what lets them pin wire mode to the simulator.
//
// The transport owns the client's disciplined clock: Exchange measures
// offsets against it, Step applies a synchronisation correction to it
// (the real-wire analogue of clock.Clock.Step — the OS clock is never
// touched).
type Transport interface {
	// Exchange sends one mode-3 request to server and waits up to
	// timeout for a reply that passes ntpauth.ClientAuth.CheckReply,
	// returning the measured clock offset (server − client, RFC 5905 §8).
	Exchange(server netip.AddrPort, timeout time.Duration) (time.Duration, error)
	// Step disciplines the transport's client clock by delta.
	Step(delta time.Duration)
}

// UDPTransport exchanges NTP packets over real UDP sockets. The zero
// value is ready to use and reads the client clock from time.Now; the
// accumulated Step corrections are layered on top, so the transmit
// timestamps leaked in requests expose the *disciplined* clock — exactly
// the side channel adaptive MitM strategies read.
type UDPTransport struct {
	// Base supplies raw client clock readings; default time.Now.
	Base func() time.Time

	mu         sync.Mutex
	correction time.Duration
}

var _ Transport = (*UDPTransport)(nil)

// Step implements Transport.
func (t *UDPTransport) Step(delta time.Duration) {
	t.mu.Lock()
	t.correction += delta
	t.mu.Unlock()
}

// Correction returns the accumulated discipline applied via Step.
func (t *UDPTransport) Correction() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.correction
}

// Exchange implements Transport over a connected UDP socket. The
// connected socket makes the kernel discard datagrams from any other
// source address — the socket-layer analogue of simnet clients checking
// Meta.From — and CheckReply rejects replies that do not echo our
// transmit time. The exchange is unauthenticated and KoD-unaware: kisses
// fail the stratum check like any other unusable reply. Both timestamps
// are Base readings plus the one correction read at t1, so a Step that
// lands mid-exchange does not skew the offset it measures.
func (t *UDPTransport) Exchange(server netip.AddrPort, timeout time.Duration) (time.Duration, error) {
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		return 0, fmt.Errorf("wirenet: dial %s: %w", server, err)
	}
	defer conn.Close()

	base, corr := t.Base, t.Correction()
	if base == nil {
		base = time.Now
	}
	t1 := base().Add(corr)
	req := ntpwire.NewClientPacket(t1)
	if _, err := conn.Write(req.Encode()); err != nil {
		return 0, fmt.Errorf("wirenet: send to %s: %w", server, err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return 0, err
	}
	origin := ntpwire.TimestampFromTime(t1)
	var auth *ntpauth.ClientAuth // nil: no credentials, bare replies accepted
	var buf [readBufSize]byte
	for {
		n, err := conn.Read(buf[:])
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return 0, fmt.Errorf("%w: %s", ErrTimeout, server)
			}
			return 0, fmt.Errorf("wirenet: read from %s: %w", server, err)
		}
		var resp ntpwire.Packet
		if auth.CheckReply(&resp, buf[:n], origin, nil) != ntpauth.ReplyOK {
			continue // keep waiting for a valid reply
		}
		t4 := base().Add(corr)
		off, _ := ntpwire.OffsetDelay(t1, resp.ReceiveTime.TimeNear(t1), resp.TransmitTime.TimeNear(t1), t4)
		return off, nil
	}
}

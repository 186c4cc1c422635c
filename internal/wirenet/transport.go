package wirenet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// ErrTimeout is returned by Exchange when no valid reply arrives within
// the query deadline.
var ErrTimeout = errors.New("wirenet: exchange timed out")

// Transport performs one client NTP exchange. Two implementations exist:
// UDPTransport speaks real sockets in real time, SimTransport pumps the
// discrete-event simulator through the very exchange the experiments
// run, chronos.Client.Query. A Syncer is oblivious to which one it holds
// — that seam is what lets the conformance tests pin wire mode to the
// simulator.
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

// now reads the disciplined client clock.
func (t *UDPTransport) now() time.Time {
	t.mu.Lock()
	corr := t.correction
	t.mu.Unlock()
	if t.Base != nil {
		return t.Base().Add(corr)
	}
	return time.Now().Add(corr)
}

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
// fail the stratum check like any other unusable reply.
func (t *UDPTransport) Exchange(server netip.AddrPort, timeout time.Duration) (time.Duration, error) {
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		return 0, fmt.Errorf("wirenet: dial %s: %w", server, err)
	}
	defer conn.Close()

	t1 := t.now()
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
		t4 := t.now()
		off, _ := ntpwire.OffsetDelay(t1, resp.ReceiveTime.TimeNear(t1), resp.TransmitTime.TimeNear(t1), t4)
		return off, nil
	}
}

// SimTransport is the same exchange on the simulator: each Exchange runs
// Client.Query — the exchange chronos.Client makes in every experiment —
// and pumps Client's network for timeout of virtual time. Client's
// clock is the transport's client clock. Client must not be seeded or
// built, or it would run sync rounds of its own.
type SimTransport struct {
	Client *chronos.Client
}

var _ Transport = (*SimTransport)(nil)

// Step implements Transport.
func (t *SimTransport) Step(delta time.Duration) {
	t.Client.Clock().Step(t.Client.Net().Now(), delta)
}

// Exchange implements Transport on the simulated network.
func (t *SimTransport) Exchange(server netip.AddrPort, timeout time.Duration) (time.Duration, error) {
	var (
		off time.Duration
		got bool
	)
	t.Client.Query(simnet.AddrFromAddrPort(server), timeout, func(o, _ time.Duration, ok bool) { off, got = o, ok })
	t.Client.Net().RunFor(timeout)
	if !got {
		return 0, fmt.Errorf("%w: %s", ErrTimeout, server)
	}
	return off, nil
}

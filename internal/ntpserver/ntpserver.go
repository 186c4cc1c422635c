// Package ntpserver implements NTPv4 servers for the simulated network:
// honest servers answering from their (slightly imperfect) local clocks,
// and malicious servers applying a time-shift strategy. A pool of these —
// honest majority or attacker-controlled supermajority — is what Chronos
// samples from.
//
// Honest servers stamp receive/transmit timestamps from a clock.Clock
// with per-server offset and drift, so even an all-honest pool shows the
// realistic dispersion Chronos' trimmed mean is designed for. Malicious
// servers answer with a ShiftStrategy-controlled lie, from a fixed offset
// to one that reads each request. Farm spins up many servers on one
// simulated network, which is how core scenarios and the fleet study
// populate benign and attacker address space.
package ntpserver

import (
	"fmt"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// ShiftStrategy decides the time shift a malicious server applies to its
// transmit/receive timestamps for one request. Honest servers use nil.
//
// A strategy sees the client's request and source address. An NTP client
// leaks its own clock in the request's TransmitTime, so an
// attacker-controlled server (or an on-path attacker) reads the client's
// current error straight off the wire and serves the largest lie that
// still passes the client's sanity checks.
type ShiftStrategy interface {
	// Shift returns the offset to add to the server's clock reading for
	// the response to req, received at (true) time now from the given
	// client address.
	Shift(now time.Time, req *ntpwire.Packet, from simnet.Addr) time.Duration
}

// ConstantShift shifts every response by a fixed amount.
type ConstantShift time.Duration

// Shift implements ShiftStrategy.
func (c ConstantShift) Shift(time.Time, *ntpwire.Packet, simnet.Addr) time.Duration {
	return time.Duration(c)
}

// ShiftFunc adapts a function of the response time alone to ShiftStrategy.
// core's malicious farms use it for their below-threshold ramp.
type ShiftFunc func(now time.Time) time.Duration

// Shift implements ShiftStrategy.
func (f ShiftFunc) Shift(now time.Time, _ *ntpwire.Packet, _ simnet.Addr) time.Duration {
	return f(now)
}

// Config parameterises a Server.
type Config struct {
	Clock    *clock.Clock  // server's local clock; nil means perfect
	Strategy ShiftStrategy // nil = honest

	// Auth is the server's authentication policy (symmetric keys,
	// require/deny). nil serves everyone unauthenticated with replies
	// byte-identical to the pre-auth stack.
	Auth *ntpauth.ServerAuth
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = &clock.Clock{}
	}
	return c
}

// Server is an NTP server bound to port 123 of a simulated host. All
// reply construction lives in the shared Responder; the Server is only
// the simnet binding (wirenet.Server is the real-socket one).
type Server struct {
	host      *simnet.Host
	responder *Responder
	state     ServeState
	wireBuf   []byte // reply encode scratch, reused across requests
}

// New binds a server to host.
func New(host *simnet.Host, cfg Config) (*Server, error) {
	s := &Server{host: host, responder: NewResponder(cfg)}
	if err := host.Listen(ntpwire.Port, s.handle); err != nil {
		return nil, fmt.Errorf("ntpserver: %w", err)
	}
	return s, nil
}

// Addr returns the server's NTP endpoint.
func (s *Server) Addr() simnet.Addr { return simnet.Addr{IP: s.host.IP(), Port: ntpwire.Port} }

// handle answers mode-3 client requests. The simnet event loop is
// single-threaded, so the per-server ServeState scratch is race-free.
func (s *Server) handle(now time.Time, meta simnet.Meta, payload []byte) {
	// SendUDP copies the payload into a pooled buffer, so one reply
	// scratch per server serves every response without allocating.
	out, ok := s.responder.ServeDatagram(s.wireBuf, now, payload, &s.state, meta.From)
	s.wireBuf = out
	if !ok {
		return
	}
	_ = s.host.SendUDP(ntpwire.Port, meta.From, s.wireBuf)
}

// Farm creates count NTP servers on consecutive addresses starting at
// base, returning their addresses. Honest servers get small random clock
// errors (offset up to ±maxErr, drift up to ±drift ppm) drawn from the
// network RNG, so the simulated pool shows realistic dispersion.
func Farm(n *simnet.Network, base simnet.IP, count int, maxErr time.Duration, driftPPM float64) ([]*Server, []simnet.IP, error) {
	servers := make([]*Server, 0, count)
	ips := make([]simnet.IP, 0, count)
	rng := n.Rand()
	for i := 0; i < count; i++ {
		ip := offsetIP(base, i)
		host, err := n.AddHost(ip)
		if err != nil {
			return nil, nil, fmt.Errorf("farm host %d: %w", i, err)
		}
		var off time.Duration
		if maxErr > 0 {
			off = time.Duration(rng.Int63n(int64(2*maxErr))) - maxErr
		}
		var drift float64
		if driftPPM > 0 {
			drift = rng.Float64()*2*driftPPM - driftPPM
		}
		srv, err := New(host, Config{Clock: clock.New(n.Now(), off, drift)})
		if err != nil {
			return nil, nil, err
		}
		servers = append(servers, srv)
		ips = append(ips, ip)
	}
	return servers, ips, nil
}

// MaliciousFarm creates count malicious servers sharing one strategy.
func MaliciousFarm(n *simnet.Network, base simnet.IP, count int, strategy ShiftStrategy) ([]*Server, []simnet.IP, error) {
	servers := make([]*Server, 0, count)
	ips := make([]simnet.IP, 0, count)
	for i := 0; i < count; i++ {
		ip := offsetIP(base, i)
		host, err := n.AddHost(ip)
		if err != nil {
			return nil, nil, fmt.Errorf("malicious farm host %d: %w", i, err)
		}
		srv, err := New(host, Config{Strategy: strategy})
		if err != nil {
			return nil, nil, err
		}
		servers = append(servers, srv)
		ips = append(ips, ip)
	}
	return servers, ips, nil
}

// offsetIP adds i to the host portion of base (carrying into octets).
func offsetIP(base simnet.IP, i int) simnet.IP {
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	v += uint32(i)
	return simnet.IPv4(byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Package wirenet binds the NTP stack to real UDP sockets: a concurrent
// production-path server around the same ntpserver.Responder the simnet
// servers use, and a Transport abstraction under which real loopback UDP
// and the discrete-event simulator are interchangeable NTP client
// substrates.
//
// The package exists to close the gap the paper's threat model lives in:
// every attack in this reproduction ultimately targets on-the-wire NTP
// traffic, so the wire format, timeout and escalation logic must hold up
// against real sockets under load, not only inside the simulator. The
// conformance tests in this package pin the two paths to each other —
// byte-identical replies from the shared responder, identical
// chronos.Rule decisions from the shared sampling and evaluation core —
// so wire mode can never drift from the simulation the experiments run
// on.
//
// Performance contract: the steady serve path (read → decode → respond →
// encode → write) performs zero heap allocations per request; every
// buffer and packet struct is per-read-loop state reused across
// requests. TestServeOneAllocFree holds serveOne to zero allocations.
package wirenet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chronosntp/internal/ntpserver"
	"chronosntp/internal/simnet"
)

// readBufSize is the per-listener receive buffer. NTP requests are 48
// bytes; the slack admits extension fields and MACs without truncation
// marking a datagram malformed for the wrong reason.
const readBufSize = 1024

// ErrServerClosed is returned by Serve-side operations after Close.
var ErrServerClosed = errors.New("wirenet: server closed")

// ServerConfig parameterises a Server.
type ServerConfig struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:0" (loopback,
	// kernel-assigned port). Defaults to "127.0.0.1:0".
	Addr string
	// Listeners is the number of concurrent read loops sharing the
	// socket; default GOMAXPROCS.
	Listeners int
	// Responder builds replies; nil means an honest defaults-only
	// ntpserver.NewResponder(ntpserver.Config{}).
	Responder *ntpserver.Responder
	// Now supplies receive timestamps; default time.Now. Tests inject a
	// deterministic clock here to make replies byte-reproducible.
	Now func() time.Time
}

// drainTimeout bounds how long Close waits for requests already read
// from the socket to finish being answered.
const drainTimeout = time.Second

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Listeners <= 0 {
		c.Listeners = runtime.GOMAXPROCS(0)
	}
	if c.Responder == nil {
		c.Responder = ntpserver.NewResponder(ntpserver.Config{})
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is a concurrent UDP NTP server on a real socket. Listeners
// read-loop goroutines share one socket; each owns its request/response
// packet structs and buffers, so the steady path allocates nothing.
type Server struct {
	cfg    ServerConfig
	conn   *net.UDPConn
	wg     sync.WaitGroup
	closed atomic.Bool

	// authMu serialises ServeDatagram across listeners when an auth
	// policy is configured: ntpauth.ServerAuth owns reusable digest and
	// AEAD scratch that is not concurrency-safe. Unauthenticated servers
	// skip the lock entirely, leaving the zero-alloc hot path untouched.
	authMu     sync.Mutex
	authSerial bool

	served  atomic.Uint64 // requests answered
	dropped atomic.Uint64 // datagrams discarded (malformed, wrong mode, write failure)
}

// Serve binds the socket and starts the read loops.
func Serve(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	addr, err := net.ResolveUDPAddr("udp4", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("wirenet: resolve %q: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("wirenet: listen %q: %w", cfg.Addr, err)
	}
	s := &Server{cfg: cfg, conn: conn, authSerial: cfg.Responder.Config().Auth != nil}
	s.wg.Add(cfg.Listeners)
	for i := 0; i < cfg.Listeners; i++ {
		go s.readLoop()
	}
	return s, nil
}

// AddrPort returns the bound endpoint (with the kernel-assigned port).
func (s *Server) AddrPort() netip.AddrPort {
	return s.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// Served reports how many requests were answered.
func (s *Server) Served() uint64 { return s.served.Load() }

// Dropped reports how many datagrams were discarded.
func (s *Server) Dropped() uint64 { return s.dropped.Load() }

// Close shuts the server down gracefully: it stops the read loops from
// accepting new datagrams, then waits up to drainTimeout for requests
// already read from the socket to be answered before closing it — no
// packet that entered a read loop before Close is dropped, which the
// drain test asserts. Close is idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return ErrServerClosed
	}
	// Unblock readers parked in ReadFromUDPAddrPort; in-flight responses
	// still write fine, the socket stays open through the drain.
	_ = s.conn.SetReadDeadline(time.Now())
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
	}
	return s.conn.Close()
}

// readLoop is one listener goroutine: all per-request state lives here
// and is reused, keeping the steady path at zero allocations.
func (s *Server) readLoop() {
	defer s.wg.Done()
	var (
		buf [readBufSize]byte
		st  ntpserver.ServeState
	)
	out := make([]byte, 0, readBufSize)
	for {
		n, from, err := s.conn.ReadFromUDPAddrPort(buf[:])
		if err != nil {
			return // closed or drain deadline
		}
		out, _ = s.serveOne(&st, out, buf[:n], from)
	}
}

// serveOne answers a single datagram through the shared authenticated
// serve core (ntpserver.Responder.ServeDatagram): decode, classify
// credentials, respond, credential-seal, write. It returns the (possibly
// regrown) output buffer and whether a reply was sent. The fuzz target
// drives this function directly with arbitrary payloads.
func (s *Server) serveOne(st *ntpserver.ServeState, out []byte, payload []byte, from netip.AddrPort) ([]byte, bool) {
	if s.authSerial {
		s.authMu.Lock()
	}
	b, ok := s.cfg.Responder.ServeDatagram(out, s.cfg.Now(), payload, st, simnet.AddrFromAddrPort(from))
	if s.authSerial {
		s.authMu.Unlock()
	}
	if !ok {
		s.dropped.Add(1)
		return b, false
	}
	if _, err := s.conn.WriteToUDPAddrPort(b, from); err != nil {
		s.dropped.Add(1)
		return b, false
	}
	s.served.Add(1)
	return b, true
}

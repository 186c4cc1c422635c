// Package interoptest is the loopback interop harness: it boots farms of
// real UDP NTP servers (honest ones with randomised clock errors, plus
// attacker-controlled ones driven by ntpserver shift strategies) on
// 127.0.0.1 and hands back the pool of endpoints, so tests and the
// poolsrv binary can drive real wirenet clients — and the fleet
// attacker's adaptive strategies — against real sockets under load.
//
// It mirrors ntpserver.Farm / ntpserver.MaliciousFarm on the wire: the
// same clock-error distribution, the same strategy hook, one wirenet
// server process-wide per pool member instead of one simnet host.
package interoptest

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
	"chronosntp/internal/wirenet"
)

// FarmConfig parameterises a loopback farm.
type FarmConfig struct {
	// Addr is the listen address every server binds (it must carry port
	// 0 when the farm has more than one member); default "127.0.0.1:0".
	Addr string
	// Honest is the number of well-behaved servers.
	Honest int
	// HonestErr bounds each honest server's random clock offset (drawn
	// uniformly from ±HonestErr, like ntpserver.Farm); 0 means perfect
	// clocks. It must lie in 0..math.MaxInt64/2, so that the draw's
	// range of 2·HonestErr does not overflow.
	HonestErr time.Duration
	// Malicious is the number of attacker-controlled servers.
	Malicious int
	// Strategy drives the malicious servers' lies; nil with Malicious>0
	// falls back to a constant 250 ms shift.
	Strategy ntpserver.ShiftStrategy
	// Seed makes the honest clock errors reproducible; 0 means 1.
	Seed int64
}

// Farm is a running set of loopback NTP servers.
type Farm struct {
	Servers []*wirenet.Server
	// Pool lists every server endpoint, honest first, in creation order —
	// index-aligned with Servers and with the Offsets below.
	Pool []netip.AddrPort
	// Offsets records each honest server's configured clock error
	// (malicious entries are zero; their lie lives in the strategy).
	Offsets []time.Duration
}

// StartFarm boots the farm, one listener per server (farms are many
// small servers, not one big one). On any error it tears down the
// servers it already started.
func StartFarm(cfg FarmConfig) (*Farm, error) {
	if cfg.Honest < 0 || cfg.Malicious < 0 || cfg.Honest+cfg.Malicious == 0 {
		return nil, fmt.Errorf("interoptest: farm needs at least one server (honest=%d malicious=%d)", cfg.Honest, cfg.Malicious)
	}
	if cfg.HonestErr < 0 || cfg.HonestErr > math.MaxInt64/2 {
		return nil, fmt.Errorf("interoptest: honest clock error %v outside 0..%v", cfg.HonestErr, time.Duration(math.MaxInt64/2))
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = ntpserver.ConstantShift(250 * time.Millisecond)
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}

	f := &Farm{}
	boot := func(responder *ntpserver.Responder, offset time.Duration) error {
		srv, err := wirenet.Serve(wirenet.ServerConfig{
			Addr:      addr,
			Listeners: 1,
			Responder: responder,
		})
		if err != nil {
			return err
		}
		f.Servers = append(f.Servers, srv)
		f.Pool = append(f.Pool, srv.AddrPort())
		f.Offsets = append(f.Offsets, offset)
		return nil
	}

	for i := 0; i < cfg.Honest; i++ {
		var off time.Duration
		if cfg.HonestErr > 0 {
			off = time.Duration(rng.Int63n(int64(2*cfg.HonestErr))) - cfg.HonestErr
		}
		r := ntpserver.NewResponder(ntpserver.Config{Clock: clock.New(time.Time{}, off, 0)})
		if err := boot(r, off); err != nil {
			f.Close()
			return nil, fmt.Errorf("interoptest: honest server %d: %w", i, err)
		}
	}
	for i := 0; i < cfg.Malicious; i++ {
		r := ntpserver.NewResponder(ntpserver.Config{Strategy: strategy})
		if err := boot(r, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("interoptest: malicious server %d: %w", i, err)
		}
	}
	return f, nil
}

// Close shuts every server down (graceful drain each).
func (f *Farm) Close() {
	for _, s := range f.Servers {
		_ = s.Close()
	}
}

// TotalServed sums answered requests across the farm.
func (f *Farm) TotalServed() uint64 {
	var n uint64
	for _, s := range f.Servers {
		n += s.Served()
	}
	return n
}

// ObservedShift is the fleet attacker's adaptive MitM strategy on the
// wire: it reads the client's disciplined clock straight off the
// request's transmit timestamp and serves whatever lie places the
// measured sample exactly at Target — the request-aware trick the
// shiftsim engine's adaptive strategies use, here exercised over real
// sockets. Safe for concurrent use (stateless).
type ObservedShift struct {
	// Target is where the served sample should land, as seen by the
	// client (sample ≈ shift − clientError, so shift = Target + observed
	// client error).
	Target time.Duration
	// Now supplies the attacker's reference clock; default time.Now.
	// Inject the same fake clock as the servers' when testing.
	Now func() time.Time
}

var _ ntpserver.RequestShiftStrategy = ObservedShift{}

// Shift implements ntpserver.ShiftStrategy (unreachable: the responder
// prefers ShiftForRequest).
func (o ObservedShift) Shift(time.Time) time.Duration { return o.Target }

// ShiftForRequest implements ntpserver.RequestShiftStrategy.
func (o ObservedShift) ShiftForRequest(now time.Time, req *ntpwire.Packet, _ simnet.Addr) time.Duration {
	ref := now
	if o.Now != nil {
		ref = o.Now()
	}
	observed := req.TransmitTime.TimeNear(ref).Sub(ref)
	return o.Target + observed
}

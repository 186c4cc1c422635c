package shiftsim

import (
	"fmt"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// Wire-mode topology bases (every run is its own network).
var (
	wireBenignBase = simnet.IPv4(203, 0, 0, 1)
	wireEvilBase   = simnet.IPv4(66, 0, 0, 1)
	wireClientIP   = simnet.IPv4(10, 0, 0, 1)
)

// wireAdapter bridges a Strategy into ntpserver.RequestShiftStrategy: it
// reads the client's clock error off the request's TransmitTime and
// converts the strategy's desired *sample offset* into the served shift
// (sample ≈ shift − clientError, so shift = plan + observed).
type wireAdapter struct {
	strategy    Strategy
	ccfg        chronos.Config
	captureNeed int
	pool        int
	mal         int
	start       time.Time
}

// Shift implements ntpserver.ShiftStrategy (unreachable: the server
// prefers ShiftForRequest).
func (w *wireAdapter) Shift(time.Time) time.Duration { return 0 }

// ShiftForRequest implements ntpserver.RequestShiftStrategy.
func (w *wireAdapter) ShiftForRequest(now time.Time, req *ntpwire.Packet, _ simnet.Addr) time.Duration {
	obs := req.TransmitTime.TimeNear(now).Sub(now)
	round := int(now.Sub(w.start)/chronos.SyncInterval) + 1
	plan := w.strategy.Plan(View{
		Wire:          true,
		Round:         round,
		Observed:      obs,
		SampleSize:    w.ccfg.SampleSize,
		CaptureNeed:   w.captureNeed,
		PoolSize:      w.pool,
		PoolMalicious: w.mal,
	})
	return plan + obs
}

// runWire executes a full packet-fidelity run: a real chronos.Client
// against ntpserver farms on simnet, the attacker's servers driven by the
// strategy through the request-aware hook. It is the ground truth the
// compressed engine is validated against.
func runWire(cfg Config) (*Result, error) {
	net := simnet.New(simnet.Config{Seed: cfg.Seed})
	benign := cfg.PoolSize - cfg.Malicious

	var ips []simnet.IP
	if benign > 0 {
		_, benIPs, err := ntpserver.Farm(net, wireBenignBase, benign, honestErr, 0)
		if err != nil {
			return nil, fmt.Errorf("shiftsim: benign farm: %w", err)
		}
		ips = append(ips, benIPs...)
	}
	if cfg.Malicious > 0 {
		adapter := &wireAdapter{
			strategy:    cfg.Strategy,
			ccfg:        cfg.Client,
			captureNeed: chronos.NewRule(cfg.Client).CaptureNeed(),
			pool:        cfg.PoolSize,
			mal:         cfg.Malicious,
			start:       net.Now(),
		}
		_, evilIPs, err := ntpserver.MaliciousFarm(net, wireEvilBase, cfg.Malicious, adapter)
		if err != nil {
			return nil, fmt.Errorf("shiftsim: malicious farm: %w", err)
		}
		ips = append(ips, evilIPs...)
	}

	host, err := net.AddHost(wireClientIP)
	if err != nil {
		return nil, err
	}
	clk := &clock.Clock{}
	cli := chronos.New(host, clk, nil, cfg.Client)
	if err := cli.SeedPool(ips); err != nil {
		return nil, err
	}

	start := net.Now()
	end := start.Add(cfg.Horizon)
	res := &Result{}
	for net.Now().Before(end) {
		if !net.Step() {
			break
		}
		now := net.Now()
		off := clk.Offset(now)
		if a := absDur(off); a > res.MaxOffset {
			res.MaxOffset = a
		}
		if !res.Shifted && absDur(off) >= cfg.Target {
			res.Shifted = true
			res.TimeToShift = now.Sub(start)
			res.RoundsToShift = int(cli.Stats().Rounds)
			break
		}
		if cfg.MaxRounds > 0 && int(cli.Stats().Rounds) > cfg.MaxRounds {
			break
		}
	}
	cli.Stop()

	st := cli.Stats()
	res.Rounds = int(st.Rounds)
	res.Attempts = int(st.Rounds + st.Resamples)
	res.Updates = int(st.Updates)
	res.Resamples = int(st.Resamples)
	res.Panics = int(st.Panics)
	res.PanicUpdates = int(st.PanicUpdates)
	now := net.Now()
	res.FinalOffset = clk.Offset(now)
	res.Elapsed = now.Sub(start)
	return res, nil
}

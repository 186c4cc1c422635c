package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"runtime/debug"
	"time"

	"chronosntp/internal/core"
	"chronosntp/internal/eval"
	"chronosntp/internal/fleet"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/runner"
	"chronosntp/internal/shiftsim"
	"chronosntp/internal/wirenet"
)

// workload is one fixed input the benchmark runs. Its sizes are constants
// here, not flags, so every run of a workload does the same work.
type workload struct {
	name string
	run  func(s *session) error
}

var workloads = []workload{
	{"fleet", func(s *session) error { return runFleet(s, fleetSize) }},
	{"shift", func(s *session) error { return runShift(s, shiftSize) }},
	{"repro", func(s *session) error { return runRepro(s, reproSize) }},
	{"wire", func(s *session) error { return runWire(s, wireSize, false) }},
	{"wire-auth", func(s *session) error { return runWire(s, wireSize, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- fleet: population-scale poisoning through shared resolvers ---

type fleetParams struct{ clients, resolvers int }

// fleetSize keeps the 1M-client fleet's shape (316 resolvers per million
// clients, Zipf fan-out, one poisoned resolver) at a quarter of its
// population: the 1M point peaks at 2.4 GB RSS, this one near 0.6 GB.
var fleetSize = fleetParams{clients: 250_000, resolvers: 79}

// fleetSubvertedSeed1 is how many clients fleetSize subverts at seed 1.
const fleetSubvertedSeed1 = 68263

func fleetConfig(seed int64, p fleetParams) fleet.Config {
	return fleet.Config{
		Seed: seed, Clients: p.clients, Resolvers: p.resolvers,
		Poisoned: 1, PoolQueries: 6, PoisonQuery: 2,
		BenignServers: 120, MaliciousServers: 60,
	}
}

// runFleet builds (set-up) and simulates (measured) the fleet repeatedly.
// Each sample gets a fresh Build because Simulate consumes the built
// state; the heap is returned to the OS between samples so the peak RSS
// holds one fleet.
func runFleet(s *session, p fleetParams) error {
	ctx := context.Background()
	cfg := fleetConfig(s.seed, p)
	ref := -1
	sample := func() error {
		f := fleet.New(cfg)
		if err := s.setup("fleet.Build", func() error { return f.Build(ctx, 0) }); err != nil {
			return err
		}
		var res *fleet.Result
		d, err := s.measure("fleet.Simulate", func() (float64, error) {
			var err error
			res, err = f.Simulate(ctx, 0)
			return float64(p.clients), err
		})
		if err != nil {
			return err
		}
		s.rate(float64(p.clients) / d.Seconds())
		s.latency(d)
		s.check(res.TotalClients == p.clients && res.PlantedResolvers == 1,
			"fleet: %d clients, %d planted resolvers", res.TotalClients, res.PlantedResolvers)
		if ref < 0 {
			ref = res.SubvertedClients
		}
		s.check(res.SubvertedClients == ref, "fleet: %d subverted clients, first sample had %d", res.SubvertedClients, ref)
		if s.seed == 1 && p == fleetSize {
			s.check(res.SubvertedClients == fleetSubvertedSeed1,
				"fleet: seed 1 subverted %d clients (fraction %.4f), pinned %d", res.SubvertedClients, res.SubvertedFraction, fleetSubvertedSeed1)
		}
		debug.FreeOSMemory()
		return nil
	}
	if err := s.warmUp(sample); err != nil {
		return err
	}
	return s.repeat(sample)
}

// --- shift: compressed long-horizon clock shifting ---

type shiftParams struct{ rounds, startRounds int }

// shiftSize runs each case for 250k 64 s sync rounds (six months of
// virtual time); set-up starts each engine and runs its first 30k.
var shiftSize = shiftParams{rounds: 250_000, startRounds: 30_000}

type shiftCase struct {
	name string
	cfg  shiftsim.Config
}

// shiftCases is the honest-majority pool and the paper's poisoned pool
// under the greedy and stealth attackers, each at two seeds so the six
// runs share the workers evenly. The 24 h target is out of reach within
// the round budget for all of them (stealth crosses 1 h near 720k rounds
// at seed 1), so every run does exactly `rounds` rounds.
func shiftCases(seed int64, rounds int) []shiftCase {
	var out []shiftCase
	for _, sd := range []int64{seed, seed + 1} {
		base := shiftsim.Config{
			Seed: sd, PoolSize: 133, MaxRounds: rounds,
			Target: 24 * time.Hour, Horizon: 100 * 365 * 24 * time.Hour, RunLength: -1,
		}
		honest, greedy, stealth := base, base, base
		honest.Malicious = 33
		greedy.Malicious = 89
		stealth.Malicious = 89
		stealth.Strategy = shiftsim.Stealth{}
		out = append(out,
			shiftCase{fmt.Sprintf("honest/%d", sd), honest},
			shiftCase{fmt.Sprintf("greedy/%d", sd), greedy},
			shiftCase{fmt.Sprintf("stealth/%d", sd), stealth})
	}
	return out
}

// runShift runs the six cases across GOMAXPROCS workers, as the E10 study
// runs its trials. Each repeat is one measured operation and must
// reproduce the first repeat's results.
func runShift(s *session, p shiftParams) error {
	cases := shiftCases(s.seed, p.rounds)
	// runAll runs every case for at most rounds rounds, storing results
	// when asked to. The runs' spans are recorded once all have ended,
	// since the tracer belongs to this goroutine.
	runAll := func(rounds int, results []shiftsim.Result) error {
		times := make([][2]time.Time, len(cases))
		err := runner.ForEach(context.Background(), len(cases), 0, func(i int) error {
			cfg := cases[i].cfg
			cfg.MaxRounds = rounds
			times[i][0] = time.Now()
			r, err := shiftsim.Run(cfg)
			times[i][1] = time.Now()
			if err == nil && results != nil {
				results[i] = *r
			}
			return err
		})
		for i, t := range times {
			s.tr.record("shiftsim.Run/"+cases[i].name, t[0], t[1])
		}
		return err
	}
	var ref []shiftsim.Result
	return s.repeat(func() error {
		if err := s.setup("shiftsim.start", func() error { return runAll(p.startRounds, nil) }); err != nil {
			return err
		}
		results := make([]shiftsim.Result, len(cases))
		units := float64(len(cases) * p.rounds)
		d, err := s.measure("shiftsim.repeat", func() (float64, error) { return units, runAll(p.rounds, results) })
		if err != nil {
			return err
		}
		s.rate(units / d.Seconds())
		s.latency(d)
		for i, r := range results {
			s.check(r.Rounds == p.rounds, "shift: %s ran %d of %d rounds", cases[i].name, r.Rounds, p.rounds)
			if ref != nil {
				s.check(r == ref[i], "shift: %s result differs from the first repeat", cases[i].name)
			}
		}
		if ref == nil {
			ref = results
		}
		return nil
	})
}

// --- repro: the full E1–E11 reproduction ---

type reproParams struct{ trials, clients, resolvers int }

// reproSize is `attacksim -experiment all` at its defaults: the paper's
// single-seed tables, E9 at 1000 clients behind 10 resolvers.
var reproSize = reproParams{trials: 1}

// reproSHA256Seed1 is the SHA-256 of reproSize's rendered tables at seed 1.
const reproSHA256Seed1 = "c493c57c95fc1078e8aa1d4a2d9be4fed37edd0f3f973df11b9bde67b8fc3095"

// reproScenarios is how many core.Scenario constructions one set-up
// sample times.
const reproScenarios = 30

// runRepro times eval.All whole. A traced run calls eval.All's steps one
// at a time instead, so each experiment gets its own span
// (TestReproStepsMatchEvalAll keeps the two equal).
func runRepro(s *session, p reproParams) error {
	par := runtime.GOMAXPROCS(0)
	all := func(trials int) ([]*eval.Result, error) {
		if s.tr == nil {
			return eval.All(s.seed, trials, par, p.clients, p.resolvers)
		}
		var out []*eval.Result
		for i, step := range reproSteps(s.seed, trials, par, p) {
			var r *eval.Result
			err := s.span(fmt.Sprintf("eval.E%d", i+1), func() (err error) {
				r, err = step()
				return err
			})
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	if err := s.warmUp(func() error { _, err := all(1); return err }); err != nil {
		return err
	}
	ref := ""
	return s.repeat(func() error {
		// Set-up: building the paper's simulated internet, which the
		// packet-level experiments repeat for every trial.
		err := s.setup("core.NewScenario", func() error {
			for i := 0; i < reproScenarios; i++ {
				cfg := core.Config{Seed: s.seed + int64(i), Mechanism: core.Defrag, PoisonQuery: 12}
				if _, err := core.NewScenario(cfg); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		var res []*eval.Result
		d, err := s.measure("eval.All", func() (float64, error) {
			var err error
			res, err = all(p.trials)
			return float64(len(res)), err
		})
		if err != nil {
			return err
		}
		s.rate(float64(len(res)) / d.Seconds())
		s.latency(d)
		sum := renderSHA256(res)
		s.check(len(res) == 11, "repro: %d tables, want 11", len(res))
		if ref == "" {
			ref = sum
		}
		s.check(sum == ref, "repro: tables hash %s, first repeat %s", sum, ref)
		if s.seed == 1 && p == reproSize {
			s.check(sum == reproSHA256Seed1, "repro: seed 1 tables hash %s, pinned %s", sum, reproSHA256Seed1)
		}
		// Without this the peak RSS creeps up with every repeat, so it
		// would depend on how many repeats the machine fits in the budget.
		debug.FreeOSMemory()
		return nil
	})
}

// reproSteps is eval.All's step list, in its order.
func reproSteps(seed int64, trials, par int, p reproParams) []func() (*eval.Result, error) {
	return []func() (*eval.Result, error){
		func() (*eval.Result, error) { return eval.Figure1(seed, trials, par) },
		func() (*eval.Result, error) { return eval.AttackWindow(seed, trials, par) },
		eval.MaxAddresses,
		eval.ChronosSecurity,
		func() (*eval.Result, error) { return eval.FragmentationStudy(seed, trials, par) },
		func() (*eval.Result, error) { return eval.TimeShift(seed, trials, par) },
		func() (*eval.Result, error) { return eval.Mitigations(seed, trials, par) },
		func() (*eval.Result, error) { return eval.Ablations(seed, trials, par) },
		func() (*eval.Result, error) { return eval.FleetStudy(seed, trials, par, p.clients, p.resolvers) },
		func() (*eval.Result, error) { return eval.ShiftStudy(seed, trials, par, 0, 0, "all") },
		func() (*eval.Result, error) { return eval.AuthStudy(seed, trials, par, 0, 0, "all", 0) },
	}
}

// renderSHA256 hashes the rendered tables. Render, unlike the JSON form,
// carries no git revision, so the hash depends on the results alone.
func renderSHA256(res []*eval.Result) string {
	h := sha256.New()
	for _, r := range res {
		h.Write([]byte(r.Render()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- wire, wire-auth: NTP serving over loopback sockets ---

type wireParams struct {
	pipeline  time.Duration // pipelined phase of one repeat
	exchanges int           // sequential exchanges in one repeat
}

// wireSize's exchange phase is a count, not a time, so the latency samples
// a run keeps — and with them its peak RSS — do not grow with the speed
// of the machine.
var wireSize = wireParams{pipeline: time.Second, exchanges: 5000}

const (
	wireWindow = 64   // requests in flight in the pipelined phase
	wireWarmUp = 1024 // requests of a repeat's set-up
	// wireReadTimeout is the per-read deadline: a reply that has not
	// arrived this long after the previous read counts as lost.
	wireReadTimeout = 250 * time.Millisecond
)

// wireClient is the load generator: one goroutine, one socket. It
// validates every reply, and with auth set also verifies its MAC.
type wireClient struct {
	req  []byte
	t1   ntpwire.Timestamp
	auth *ntpauth.ClientAuth
	buf  [1024]byte
	resp ntpwire.Packet
}

// read waits for one reply and reports whether it is valid.
func (c *wireClient) read(conn *net.UDPConn) (bool, error) {
	if err := conn.SetReadDeadline(time.Now().Add(wireReadTimeout)); err != nil {
		return false, err
	}
	n, err := conn.Read(c.buf[:])
	if err != nil {
		return false, err
	}
	if ntpwire.DecodeInto(&c.resp, c.buf[:n]) != nil || !ntpwire.ValidServerResponse(&c.resp, c.t1) {
		return false, nil
	}
	if c.auth != nil {
		authed, acceptable := c.auth.VerifyResponse(c.buf[:n])
		return authed && acceptable, nil
	}
	return true, nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// pipeline keeps up to wireWindow requests in flight until the deadline
// passes or max requests (0: no limit) have been sent, then drains the
// window. A read that times out counts every request still in flight as
// failed.
func (c *wireClient) pipeline(conn *net.UDPConn, until time.Time, max int64) (sent, failed int64, err error) {
	inflight := int64(0)
	for {
		for inflight < wireWindow && (max == 0 || sent < max) && time.Now().Before(until) {
			if _, err := conn.Write(c.req); err != nil {
				return sent, failed, err
			}
			sent++
			inflight++
		}
		if inflight == 0 {
			return sent, failed, nil
		}
		ok, err := c.read(conn)
		switch {
		case isTimeout(err):
			failed += inflight
			inflight = 0
		case err != nil:
			return sent, failed, err
		default:
			inflight--
			if !ok {
				failed++
			}
		}
	}
}

// exchange makes one exchange on a fresh socket, as
// wirenet.UDPTransport.Exchange does.
func (c *wireClient) exchange(server netip.AddrPort) (bool, error) {
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		return false, err
	}
	defer conn.Close()
	if _, err := conn.Write(c.req); err != nil {
		return false, err
	}
	ok, err := c.read(conn)
	if isTimeout(err) {
		return false, nil
	}
	return ok, err
}

// runWire serves NTP on a fresh loopback server per repeat. A repeat is
// set-up (Serve, dial, wireWarmUp pipelined requests), a pipelined phase
// measured for throughput, and sequential exchanges measured for latency:
// wirenet.UDPTransport.Exchange for plain NTP, and for wire-auth the same
// exchange with a SHA-256 MAC, since UDPTransport does not authenticate.
func runWire(s *session, p wireParams, auth bool) error {
	t1 := time.Unix(1591000000+s.seed%1_000_000, 0)
	req := ntpwire.NewClientPacket(t1).Encode()
	var key ntpauth.Key
	if auth {
		key = ntpauth.Key{ID: 9, Algo: ntpauth.AlgoSHA256, Secret: []byte(fmt.Sprintf("chronosbench-key-%d", s.seed))}
	}
	repeat := func() error {
		c := &wireClient{req: req, t1: ntpwire.TimestampFromTime(t1)}
		cfg := wirenet.ServerConfig{}
		if auth {
			tbl, err := ntpauth.NewKeyTable(key)
			if err != nil {
				return err
			}
			cfg.Responder = ntpserver.NewResponder(ntpserver.Config{Auth: &ntpauth.ServerAuth{Keys: tbl, Require: true}})
			c.auth = &ntpauth.ClientAuth{Key: key, Require: true}
			c.req = c.auth.SealRequest(append([]byte(nil), req...))
		}
		return wireRepeat(s, p, cfg, c)
	}
	if err := s.warmUp(repeat); err != nil {
		return err
	}
	return s.repeat(repeat)
}

func wireRepeat(s *session, p wireParams, cfg wirenet.ServerConfig, c *wireClient) error {
	var (
		srv  *wirenet.Server
		conn *net.UDPConn
		sent int64
	)
	defer func() {
		if conn != nil {
			conn.Close()
		}
		if srv != nil {
			srv.Close()
		}
	}()
	err := s.setup("wirenet.Serve", func() error {
		var err error
		if srv, err = wirenet.Serve(cfg); err != nil {
			return err
		}
		if conn, err = net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(srv.AddrPort())); err != nil {
			return err
		}
		n, failed, err := c.pipeline(conn, time.Now().Add(time.Minute), wireWarmUp)
		sent += n
		s.tally(n, failed, "wire: %d of %d warm-up replies failed", failed, n)
		return err
	})
	if err != nil {
		return err
	}

	var answered float64
	d, err := s.measure("wire.pipeline", func() (float64, error) {
		n, failed, err := c.pipeline(conn, time.Now().Add(p.pipeline), 0)
		sent += n
		answered = float64(n - failed)
		s.tally(n, failed, "wire: %d of %d pipelined replies failed", failed, n)
		return answered, err
	})
	if err != nil {
		return err
	}
	s.rate(answered / d.Seconds())
	conn.Close() // one client socket at a time: the exchanges dial their own
	conn = nil

	err = s.span("wire.exchange", func() error {
		tr := &wirenet.UDPTransport{}
		for i := 0; i < p.exchanges; i++ {
			t0 := time.Now()
			var ok bool
			var err error
			if c.auth == nil {
				_, err = tr.Exchange(srv.AddrPort(), wireReadTimeout)
				ok = err == nil
				if errors.Is(err, wirenet.ErrTimeout) {
					err = nil
				}
			} else {
				ok, err = c.exchange(srv.AddrPort())
			}
			if err != nil {
				return err
			}
			d := time.Since(t0)
			sent++
			s.check(ok, "wire: sequential exchange failed")
			if ok {
				s.latency(d)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	srv.Close()
	s.check(srv.Served() >= uint64(sent), "wire: server answered %d of %d requests", srv.Served(), sent)
	s.check(srv.Dropped() == 0, "wire: server dropped %d datagrams", srv.Dropped())
	srv = nil
	return nil
}

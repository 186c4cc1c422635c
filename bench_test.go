package chronosntp_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"chronosntp/internal/analysis"
	"chronosntp/internal/attack"
	"chronosntp/internal/chronos"
	"chronosntp/internal/core"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/eval"
	"chronosntp/internal/fleet"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/runner"
	"chronosntp/internal/shiftsim"
	"chronosntp/internal/simnet"
	"chronosntp/internal/wirenet"
)

// The benchmarks below regenerate every table/figure of the paper (and
// the claims its single figure rests on). Each reports the headline
// number as a benchmark metric so `go test -bench` output doubles as the
// reproduction record; the full formatted tables come from cmd/attacksim.

// BenchmarkFigure1PoolComposition regenerates Figure 1: pool composition
// over the 24 hourly queries with defragmentation poisoning at query 12.
func BenchmarkFigure1PoolComposition(b *testing.B) {
	var fraction float64
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.Config{Seed: 1, Mechanism: core.Defrag, PoisonQuery: 12})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		fraction = res.AttackerFraction
	}
	b.ReportMetric(fraction, "attacker-fraction")
	b.ReportMetric(2.0/3.0, "paper-threshold")
}

// BenchmarkTableAttackWindow regenerates the §IV attack-window claim: the
// last poisoning query that still yields a ≥2/3 pool majority.
func BenchmarkTableAttackWindow(b *testing.B) {
	crossover := 0
	for i := 0; i < b.N; i++ {
		crossover = analysis.MaxPoisonQuery(24, 4, 89, 2.0/3.0)
	}
	b.ReportMetric(float64(crossover), "crossover-query")
	b.ReportMetric(12, "paper-crossover")
}

// BenchmarkTableMaxAddresses regenerates the §IV forged-response capacity
// ("up to 89 for a single non-fragmented DNS response").
func BenchmarkTableMaxAddresses(b *testing.B) {
	records := 0
	for i := 0; i < b.N; i++ {
		var err error
		records, err = dnswire.MaxARecords(core.PoolName, dnswire.EthernetMaxPayload, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "max-records")
	b.ReportMetric(89, "paper-max-records")
}

// BenchmarkTableChronosSecurity regenerates the §III security-bound
// contrast: years to shift 100 ms at the 1/3 boundary vs hours at the
// poisoned 2/3 pool.
func BenchmarkTableChronosSecurity(b *testing.B) {
	var honestYears, poisonedHours float64
	for i := 0; i < b.N; i++ {
		honest, err := analysis.YearsToShift(500, 166, 15, 5, 100*time.Millisecond, 25*time.Millisecond, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		poisoned, err := analysis.YearsToShift(133, 89, 15, 5, 100*time.Millisecond, 25*time.Millisecond, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		honestYears = honest.Years
		poisonedHours = poisoned.ExpectedRounds
	}
	b.ReportMetric(honestYears, "honest-years")
	b.ReportMetric(poisonedHours, "poisoned-hours")
	b.ReportMetric(20, "paper-honest-years-min")
}

// BenchmarkTableFragmentationStudy regenerates the §II measurement-study
// marginals on the calibrated synthetic populations.
func BenchmarkTableFragmentationStudy(b *testing.B) {
	var tbl *eval.Table
	for i := 0; i < b.N; i++ {
		res, err := eval.FragmentationStudy(1, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		tbl = res.Table()
	}
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkTableTimeShift regenerates the end-to-end shift contrast:
// honest Chronos vs poisoned Chronos vs poisoned classic NTP.
func BenchmarkTableTimeShift(b *testing.B) {
	var poisonedMs float64
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.Config{
			Seed: 2, Mechanism: core.Defrag, PoisonQuery: 12,
			SyncDuration: 2 * time.Hour, RunPlainNTP: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		poisonedMs = float64(res.ChronosOffset) / float64(time.Millisecond)
	}
	b.ReportMetric(poisonedMs, "poisoned-chronos-shift-ms")
	b.ReportMetric(100, "paper-shift-goal-ms")
}

// BenchmarkTableMitigations regenerates the §V table: each defence's pool
// composition, plus the 24 h-hijack residual attack.
func BenchmarkTableMitigations(b *testing.B) {
	var mitigatedMalicious, hijackFraction float64
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.Config{
			Seed: 3, Mechanism: core.Defrag, PoisonQuery: 12, ResolverCaps: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		mitigatedMalicious = float64(res.PoolMalicious)

		h, err := core.NewScenario(core.Config{
			Seed: 4, Mechanism: core.BGPHijackPersistent, PoisonQuery: 1,
			MaliciousServers: 120, ResolverCaps: true, ClientCaps: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		hres, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		hijackFraction = hres.AttackerFraction
	}
	b.ReportMetric(mitigatedMalicious, "mitigated-malicious")
	b.ReportMetric(hijackFraction, "hijack24h-fraction")
}

// BenchmarkTableAblations regenerates the E8 ablation table (TTL pinning,
// sample size, injected-address count).
func BenchmarkTableAblations(b *testing.B) {
	var rows float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Ablations(1, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows = float64(len(res.Table().Rows))
	}
	b.ReportMetric(rows, "rows")
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationForgedTTL contrasts the TTL-pinning design choice: a
// forged response with a short TTL does not freeze the pool, so benign
// servers keep accumulating after the poisoning.
func BenchmarkAblationForgedTTL(b *testing.B) {
	run := func(ttl time.Duration) float64 {
		s, err := core.NewScenario(core.Config{
			Seed: 5, Mechanism: core.Defrag, PoisonQuery: 6, ForgedTTL: ttl,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.AttackerFraction
	}
	var pinned, unpinned float64
	for i := 0; i < b.N; i++ {
		pinned = run(attack.DefaultForgedTTL)
		unpinned = run(150 * time.Second)
	}
	b.ReportMetric(pinned, "fraction-ttl-7d")
	b.ReportMetric(unpinned, "fraction-ttl-150s")
}

// BenchmarkAblationEDNSCapacity sweeps the EDNS payload size: the forged
// record count per single response (the paper's lever #1).
func BenchmarkAblationEDNSCapacity(b *testing.B) {
	var classic, flagDay, ethernet, jumbo int
	for i := 0; i < b.N; i++ {
		classic, _ = dnswire.MaxARecords(core.PoolName, 512, false)
		flagDay, _ = dnswire.MaxARecords(core.PoolName, 1232, true)
		ethernet, _ = dnswire.MaxARecords(core.PoolName, 1472, true)
		jumbo, _ = dnswire.MaxARecords(core.PoolName, 4096, true)
	}
	b.ReportMetric(float64(classic), "records-512")
	b.ReportMetric(float64(flagDay), "records-1232")
	b.ReportMetric(float64(ethernet), "records-1472")
	b.ReportMetric(float64(jumbo), "records-4096")
}

// BenchmarkAblationSampleSize sweeps Chronos' m (with d = m/3): the
// round-capture probability at the paper's poisoned pool.
func BenchmarkAblationSampleSize(b *testing.B) {
	var p9, p15, p27 float64
	for i := 0; i < b.N; i++ {
		p9 = analysis.RoundWinProb(133, 89, 9, 3)
		p15 = analysis.RoundWinProb(133, 89, 15, 5)
		p27 = analysis.RoundWinProb(133, 89, 27, 9)
	}
	b.ReportMetric(p9, "capture-m9")
	b.ReportMetric(p15, "capture-m15")
	b.ReportMetric(p27, "capture-m27")
}

// BenchmarkDNSWireRoundTrip measures the hot wire-format path (encode +
// decode of the 89-record forged response).
func BenchmarkDNSWireRoundTrip(b *testing.B) {
	forge := &attack.ResponseForge{PoolName: core.PoolName, Servers: evilIPs(89)}
	q := dnswire.NewQuery(1, core.PoolName, dnswire.TypeA)
	q.SetEDNS(dnswire.EthernetMaxPayload)
	resp, err := forge.Response(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := resp.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dnswire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerParallelism measures the Monte-Carlo engine's throughput
// (trials/sec) at 1 worker, 4 workers, and GOMAXPROCS workers over a fixed
// 16 reduced scenarios: 2 mechanisms × 2 poison queries × 4 seeds. On a
// 4-core machine the 4-worker run should deliver ≥ 2× the single-worker
// trials/sec.
func BenchmarkRunnerParallelism(b *testing.B) {
	var trials []core.Config
	for _, mech := range []core.Mechanism{core.Defrag, core.BGPHijack} {
		for _, q := range []int{2, 4} {
			for seed := int64(1); seed <= 4; seed++ {
				trials = append(trials, core.Config{Seed: seed, Mechanism: mech, PoisonQuery: q, MaliciousServers: 20})
			}
		}
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, workers := range workerCounts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				_, err := runner.Map(context.Background(), len(trials), workers, nil,
					func(i int) (*core.Result, error) { return core.Run(trials[i]) })
				if err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			b.ReportMetric(float64(len(trials)*b.N)/elapsed.Seconds(), "trials/sec")
			b.ReportMetric(float64(len(trials)), "trials/grid")
		})
	}
}

// BenchmarkFleetScale measures the population engine's steady-state
// throughput (clients/sec) at 1k, 10k and 100k clients. Fan-out is Zipf
// with one poisoned resolver; the pool-generation horizon is reduced to 6
// hourly queries so a single iteration stays in benchmark range.
//
// The measured region is fleet.Simulate only — the event loops plus the
// population measurement. Construction (fleet.Build: topology, client
// population, attacker schedule) runs with the timer stopped and is
// reported separately as setup-ms/op; the timer pause also suspends the
// allocation accounting, so allocs/op reads on the steady simulation
// path alone. Run it at a fixed -benchtime (say 3x) so two runs compare
// equal trial counts rather than whatever the 1s calibration lands on.
func BenchmarkFleetScale(b *testing.B) {
	sizes := []struct{ clients, resolvers int }{
		{1_000, 10},
		{10_000, 32},
		{100_000, 100},
	}
	for _, sz := range sizes {
		cfg := fleet.Config{
			Seed:          1,
			Clients:       sz.clients,
			Resolvers:     sz.resolvers,
			Poisoned:      1,
			PoolQueries:   6,
			PoisonQuery:   2,
			BenignServers: 120, MaliciousServers: 60,
		}
		b.Run(fmt.Sprintf("clients=%d", sz.clients), func(b *testing.B) {
			var subverted float64
			var setup, steady time.Duration
			b.ReportAllocs()
			gc0, total0 := gcCPUSeconds()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := fleet.New(cfg)
				t0 := time.Now()
				if err := f.Build(context.Background(), 0); err != nil {
					b.Fatal(err)
				}
				setup += time.Since(t0)
				b.StartTimer()
				t0 = time.Now()
				res, err := f.Simulate(context.Background(), 0)
				if err != nil {
					b.Fatal(err)
				}
				steady += time.Since(t0)
				subverted = res.SubvertedFraction
			}
			b.ReportMetric(float64(sz.clients)*float64(b.N)/steady.Seconds(), "clients/sec")
			b.ReportMetric(setup.Seconds()*1e3/float64(b.N), "setup-ms/op")
			b.ReportMetric(subverted, "subverted-fraction")
			// Whole-op GC fraction (setup included: StopTimer pauses the
			// benchmark clock, not the collector).
			reportGCFrac(b, gc0, total0)
		})
	}
}

// BenchmarkFleetShard is the fleet's one-shard rung: the simulate phase
// of shard 0 of chronosbench's fleet (250k clients behind 79 resolvers
// with Zipf exponent 1.2, one poisoned, 6 pool queries) — the poisoned
// Zipf head, which holds 71,274 of the clients. A one-resolver fleet of
// that shard's size, seed and role builds the same shard. Build runs with
// the timer stopped, so clients/sec and allocs/op read on Simulate alone.
func BenchmarkFleetShard(b *testing.B) {
	clients := fleet.Apportion(250_000, 79, fleet.Zipf, 1.2)[0]
	cfg := fleet.Config{
		Seed: 1, Clients: clients, Resolvers: 1,
		Poisoned: 1, PoolQueries: 6, PoisonQuery: 2,
		BenignServers: 120, MaliciousServers: 60,
	}
	var steady time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := fleet.New(cfg)
		if err := f.Build(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		if _, err := f.Simulate(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
		steady += time.Since(t0)
	}
	b.ReportMetric(float64(clients)*float64(b.N)/steady.Seconds(), "clients/sec")
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time and total CPU
// time via runtime/metrics. The delta ratio across a benchmark region is
// reported as gc-cpu-frac: the fraction of compute the collector ate,
// the number the slab event engine exists to hold down.
func gcCPUSeconds() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// reportGCFrac reports the GC CPU fraction over the region since
// gcCPUSeconds returned (gc0, total0).
func reportGCFrac(b *testing.B, gc0, total0 float64) {
	gc1, total1 := gcCPUSeconds()
	if d := total1 - total0; d > 0 {
		b.ReportMetric((gc1-gc0)/d, "gc-cpu-frac")
	}
}

// BenchmarkEventQueue measures the simulator's raw schedule+dispatch
// throughput at a fixed standing depth. Each of depth pending timers
// re-arms itself when it fires, so every op is one Step — a dispatch and
// a schedule — on a queue that holds exactly depth events. The depths
// are measured ones: about 2 events per fleet shard, at most 16 in E9
// and 264 in E6, plus a standing population of 10k. Delays mix packet
// latencies (under 2 ms), seconds and hours.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{2, 16, 264, 10_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			n := simnet.New(simnet.Config{Seed: 1})
			rng := rand.New(rand.NewSource(7))
			delay := func() time.Duration {
				switch rng.Intn(8) {
				case 0, 1, 2:
					return time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
				case 3, 4, 5:
					return time.Duration(rng.Int63n(int64(3 * time.Second)))
				default:
					return time.Duration(rng.Int63n(int64(4 * time.Hour)))
				}
			}
			var rearm func()
			rearm = func() { n.After(delay(), rearm) }
			for i := 0; i < depth; i++ {
				n.After(delay(), rearm)
			}
			b.ReportAllocs()
			gc0, total0 := gcCPUSeconds()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if !n.Step() {
					b.Fatal("the queue ran dry; the loop under test is vacuous")
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			reportGCFrac(b, gc0, total0)
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "events/sec")
		})
	}
}

// BenchmarkShiftEngine measures the long-horizon shift engine's
// throughput in simulated rounds/sec. The acceptance bar is ≥ 100k
// rounds/sec — the round-compression fast path (simnet.FastForward plus
// attempt-granular sampling) is what makes simulating the paper's
// "decades to shift" regimes tractable. The honest-majority
// configuration exercises the steady-state path (every round samples,
// evaluates C1/C2, and applies an update); the poisoned configuration
// adds the escalation machinery. A fixed 50k-round budget per iteration
// keeps the metric stable.
func BenchmarkShiftEngine(b *testing.B) {
	cases := []struct {
		name string
		cfg  shiftsim.Config
	}{
		{"honest-majority", shiftsim.Config{
			Seed: 1, PoolSize: 133, Malicious: 33,
			Target: time.Hour, // unreachable: pure steady-state throughput
		}},
		{"poisoned-greedy", shiftsim.Config{
			Seed: 1, PoolSize: 133, Malicious: 89,
			Target: time.Hour,
		}},
		{"poisoned-stealth", shiftsim.Config{
			Seed: 1, PoolSize: 133, Malicious: 89, Strategy: shiftsim.Stealth{},
			Target: time.Hour,
		}},
	}
	for _, tc := range cases {
		tc.cfg.MaxRounds = 50_000
		tc.cfg.Horizon = 10 * 365 * 24 * time.Hour
		tc.cfg.RunLength = -1
		b.Run(tc.name, func(b *testing.B) {
			rounds := 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := shiftsim.Run(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			elapsed := time.Since(start)
			b.ReportMetric(float64(rounds)/elapsed.Seconds(), "rounds/sec")
			b.ReportMetric(100_000, "target-rounds/sec")
		})
	}
}

// BenchmarkRuleEvaluate is the chronos-round rung of the layer ladder:
// one attempt's decision, at the three shapes the engines feed it on the
// paper's poisoned pool (89 of 133 servers answering +25 ms, the rest
// ±2 ms) — an m=15 C1/C2 attempt, the n=133 panic sweep (the 44 honest
// samples, then the 89 identical attacker ones, as the shift engine
// builds it) and an m=15 attempt under the minsources-3 quorum. Each
// iteration copies one of 256 pre-drawn attempts into the buffer the
// decision reorders, so the figure holds no sampling or RNG. Run with
// -benchmem: every path is 0 allocs/op.
func BenchmarkRuleEvaluate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const poolSize, malicious = 133, 89
	honest := func() time.Duration {
		return time.Duration(rng.Int63n(int64(4*time.Millisecond))) - 2*time.Millisecond
	}
	attempts := func(m int, draw func(i int) time.Duration) [][]time.Duration {
		out := make([][]time.Duration, 256)
		for k := range out {
			out[k] = make([]time.Duration, m)
			for i := range out[k] {
				out[k][i] = draw(i)
			}
		}
		return out
	}
	sampled := func(int) time.Duration {
		if rng.Intn(poolSize) < malicious {
			return 25 * time.Millisecond
		}
		return honest()
	}
	sweep := func(i int) time.Duration {
		if i < poolSize-malicious {
			return honest()
		}
		return 25 * time.Millisecond
	}
	classic := chronos.NewRule(chronos.Config{})
	quorum := chronos.NewRule(chronos.Config{MinSources: 3})
	cases := []struct {
		name     string
		attempts [][]time.Duration
		decide   func([]time.Duration) time.Duration
	}{
		{"c1c2-m15", attempts(15, sampled), func(xs []time.Duration) time.Duration { return classic.Evaluate(xs).Update }},
		{"panic-n133", attempts(poolSize, sweep), func(xs []time.Duration) time.Duration {
			upd, _ := classic.PanicUpdate(xs)
			return upd
		}},
		{"quorum-minsources3", attempts(15, sampled), func(xs []time.Duration) time.Duration { return quorum.Evaluate(xs).Update }},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			buf := make([]time.Duration, len(tc.attempts[0]))
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				copy(buf, tc.attempts[i%len(tc.attempts)])
				ruleSink = tc.decide(buf)
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "evaluations/sec")
		})
	}
}

// ruleSink keeps BenchmarkRuleEvaluate's decisions observable.
var ruleSink time.Duration

// BenchmarkWireServe measures the real-socket NTP serve path end to end
// over loopback: a zero-alloc client pipelines batches of requests
// against a wirenet.Server with a 64-deep window, so the metric reflects
// server throughput rather than ping-pong latency. The acceptance bar is
// ≥ 50k requests/sec with 0 allocs/op — run with -benchmem;
// TestServeOneAllocFree in internal/wirenet enforces the 0.
func BenchmarkWireServe(b *testing.B) {
	srv, err := wirenet.Serve(wirenet.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(srv.AddrPort()))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	const batch = 2048 // requests per benchmark iteration
	const window = 64  // in-flight requests
	t1 := time.Unix(1591000000, 0)
	t1ts := ntpwire.TimestampFromTime(t1)
	wire := ntpwire.NewClientPacket(t1).Encode()
	var resp ntpwire.Packet
	var respBuf [1024]byte
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		b.Fatal(err)
	}
	readOne := func() {
		n, err := conn.Read(respBuf[:])
		if err != nil {
			b.Fatal(err)
		}
		if err := ntpwire.DecodeInto(&resp, respBuf[:n]); err != nil {
			b.Fatal(err)
		}
		if !ntpwire.ValidServerResponse(&resp, t1ts) {
			b.Fatalf("invalid reply: %+v", resp)
		}
	}

	// Absorb the socket's first-use lazy allocations (deadline timer,
	// poller state) outside the measured region, so allocs/op is an
	// honest read on the steady path even at -benchtime 1x.
	if _, err := conn.Write(wire); err != nil {
		b.Fatal(err)
	}
	readOne()

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sent, inflight := 0, 0
		for sent < batch {
			for inflight < window && sent < batch {
				if _, err := conn.Write(wire); err != nil {
					b.Fatal(err)
				}
				inflight++
				sent++
			}
			readOne()
			inflight--
		}
		for ; inflight > 0; inflight-- {
			readOne()
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "requests/sec")
	b.ReportMetric(50_000, "target-requests/sec")
	srv.Close() // the server counts a request after writing its reply
	if got, want := srv.Served(), uint64(b.N*batch); got < want {
		b.Fatalf("served %d of %d requests", got, want)
	}
}

// BenchmarkAuthVerify measures the MAC-authenticated serve path end to
// end over loopback: every request carries a SHA-256 trailer the server
// must verify, every reply is sealed and verified again client-side.
// Same pipelined shape as BenchmarkWireServe, so the requests/sec gap
// between the two is the price of symmetric authentication. The
// acceptance bar is 0 allocs/op — the verify/seal path reuses the
// policy's hash scratch; TestServeDatagramAuthZeroAlloc in
// internal/ntpserver enforces it.
func BenchmarkAuthVerify(b *testing.B) {
	key := ntpauth.Key{ID: 9, Algo: ntpauth.AlgoSHA256, Secret: []byte("bench-auth-secret")}
	tbl, err := ntpauth.NewKeyTable(key)
	if err != nil {
		b.Fatal(err)
	}
	mkAuth := func() *ntpauth.ServerAuth {
		return &ntpauth.ServerAuth{Keys: tbl, Require: true}
	}
	srv, err := wirenet.Serve(wirenet.ServerConfig{
		Responder: ntpserver.NewResponder(ntpserver.Config{Auth: mkAuth()}),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(srv.AddrPort()))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	const batch = 2048 // requests per benchmark iteration
	const window = 64  // in-flight requests
	t1 := time.Unix(1591000000, 0)
	t1ts := ntpwire.TimestampFromTime(t1)
	raw := ntpwire.NewClientPacket(t1).Encode()
	wire, ok := ntpauth.NewMACer(tbl).AppendMAC(raw, key.ID, raw)
	if !ok {
		b.Fatal("AppendMAC failed")
	}
	ca := &ntpauth.ClientAuth{Key: key, Require: true}
	var resp ntpwire.Packet
	var respBuf [1024]byte
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		b.Fatal(err)
	}
	readOne := func() {
		n, err := conn.Read(respBuf[:])
		if err != nil {
			b.Fatal(err)
		}
		if err := ntpwire.DecodeInto(&resp, respBuf[:n]); err != nil {
			b.Fatal(err)
		}
		if !ntpwire.ValidServerResponse(&resp, t1ts) {
			b.Fatalf("invalid reply: %+v", resp)
		}
		if authed, acceptable := ca.VerifyResponse(respBuf[:n]); !authed || !acceptable {
			b.Fatalf("reply MAC rejected (authed=%v acceptable=%v)", authed, acceptable)
		}
	}

	// Absorb first-use lazy allocations (socket poller, the policy's MAC
	// scratch on both ends) outside the measured region.
	if _, err := conn.Write(wire); err != nil {
		b.Fatal(err)
	}
	readOne()

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sent, inflight := 0, 0
		for sent < batch {
			for inflight < window && sent < batch {
				if _, err := conn.Write(wire); err != nil {
					b.Fatal(err)
				}
				inflight++
				sent++
			}
			readOne()
			inflight--
		}
		for ; inflight > 0; inflight-- {
			readOne()
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "requests/sec")
	srv.Close() // the server counts a request after writing its reply
	if got, want := srv.Served(), uint64(b.N*batch); got < want {
		b.Fatalf("served %d of %d requests", got, want)
	}
}

func evilIPs(n int) []simnet.IP {
	out := make([]simnet.IP, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, simnet.IPv4(66, 0, byte(i/250), byte(i%250+1)))
	}
	return out
}

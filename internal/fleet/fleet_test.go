package fleet

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/core"
	"chronosntp/internal/ntpclient"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

func TestApportionExact(t *testing.T) {
	for _, tc := range []struct {
		clients, resolvers int
		dist               Distribution
		s                  float64
	}{
		{1000, 10, Zipf, 1.2},
		{1000, 10, Uniform, 0},
		{7, 10, Zipf, 1.2},
		{10007, 13, Zipf, 0.8},
		{0, 5, Uniform, 0},
		{1, 1, Zipf, 1.2},
	} {
		counts := Apportion(tc.clients, tc.resolvers, tc.dist, tc.s)
		if len(counts) != tc.resolvers {
			t.Fatalf("Apportion(%d,%d): %d shards", tc.clients, tc.resolvers, len(counts))
		}
		sum := 0
		for _, n := range counts {
			if n < 0 {
				t.Fatalf("negative shard count %v", counts)
			}
			sum += n
		}
		if sum != tc.clients {
			t.Fatalf("Apportion(%d,%d,%v): sum %d", tc.clients, tc.resolvers, tc.dist, sum)
		}
	}
}

func TestApportionZipfDescending(t *testing.T) {
	counts := Apportion(10000, 20, Zipf, 1.2)
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("zipf fan-out not descending at %d: %v", i, counts)
		}
	}
	uniform := Apportion(10000, 20, Uniform, 0)
	if uniform[0] != uniform[len(uniform)-1] {
		t.Fatalf("uniform fan-out skewed: %v", uniform)
	}
	if counts[0] <= uniform[0] {
		t.Fatalf("zipf head %d should exceed uniform share %d", counts[0], uniform[0])
	}
}

// TestNegativeScheduleRejected: a negative pool query interval or count
// used to panic inside a runner worker, where no caller could recover it,
// and so did a negative server count; other out-of-range values were
// clamped or defaulted into a different simulation than the one asked
// for. Build, Run and RunAll must return an error wrapping ErrFleet
// instead, while zero keeps meaning the default. Cases leave Clients and
// Resolvers zero for 100 and 2.
func TestNegativeScheduleRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		// The resolved query count; zero means every entry point must fail.
		queries int
	}{
		{"negative queries", Config{PoolQueries: -3}, 0},
		{"zero queries", Config{}, 24},
		{"negative benign servers", Config{BenignServers: -1}, 0},
		{"negative malicious servers", Config{MaliciousServers: -1}, 0},
		{"negative clients", Config{Clients: -5}, 0},
		{"negative resolvers", Config{Resolvers: -3}, 0},
		{"negative poisoned", Config{Poisoned: -1}, 0},
		{"poisoned over resolvers", Config{Poisoned: 3}, 0},
		{"poisoned all resolvers", Config{Poisoned: 2, PoolQueries: 2, PoisonQuery: 2}, 2},
		{"poison query past the pool", Config{Poisoned: 1, PoisonQuery: 40}, 0},
		{"poison query past a short pool", Config{Poisoned: 1, PoolQueries: 4}, 0},
		{"negative poison query", Config{Poisoned: 1, PoisonQuery: -2}, 0},
		{"poison query unread when honest", Config{PoolQueries: 2, PoisonQuery: 40}, 2},
		{"unknown distribution", Config{Distribution: 7}, 0},
		{"negative distribution", Config{Distribution: -1}, 0},
		{"paper caps", Config{ResolverCaps: true, ClientCaps: true}, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Clients == 0 {
				cfg.Clients = 100
			}
			if cfg.Resolvers == 0 {
				cfg.Resolvers = 2
			}
			_, runErr := Run(context.Background(), cfg, 1)
			_, allErr := RunAll(context.Background(), []Config{testConfig(1), cfg}, 1)
			f := New(cfg)
			buildErr := f.Build(context.Background(), 1)
			for _, err := range []error{runErr, allErr, buildErr} {
				if tc.queries == 0 && !errors.Is(err, ErrFleet) {
					t.Fatalf("err = %v, want one wrapping ErrFleet", err)
				}
				if tc.queries != 0 && err != nil {
					t.Fatal(err)
				}
			}
			if tc.queries == 0 && !strings.HasPrefix(allErr.Error(), "config 1: ") {
				t.Fatalf("RunAll err = %v, want it to name config 1", allErr)
			}
			if got := f.cfg.PoolQueries; tc.queries != 0 && got != tc.queries {
				t.Fatalf("resolved %d queries, want %d", got, tc.queries)
			}
		})
	}
}

// TestRunAllValidatesBeforeAnyShard: one invalid config fails the whole
// grid before any shard runs. Under a cancelled context config 0 fails
// when its shards start, so if shards ran first that error would win.
func TestRunAllValidatesBeforeAnyShard(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testConfig(1), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want the cancelled context's", err)
	}
	bad := testConfig(1)
	bad.BenignServers = -1
	_, err := RunAll(ctx, []Config{testConfig(1), bad}, 1)
	if !errors.Is(err, ErrFleet) || !strings.HasPrefix(err.Error(), "config 1: ") {
		t.Fatalf("RunAll err = %v, want config 1's validation error", err)
	}
}

// testConfig is a small-but-real fleet: enough clients for the shared
// cache to matter, reduced horizon so the suite stays fast.
func testConfig(poisoned int) Config {
	return Config{
		Seed:          7,
		Clients:       240,
		Resolvers:     6,
		Poisoned:      poisoned,
		PoolQueries:   8,
		BenignServers: 120, MaliciousServers: 60,
	}
}

func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	cfg := testConfig(2)
	seq, err := Run(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fleet result differs across parallelism:\nseq: %+v\npar: %+v", seq, par)
	}
	again, err := Run(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, again) {
		t.Fatalf("fleet result not reproducible from seed")
	}
}

// TestFleet10kDeterministic is the acceptance-scale check: a 10 000-client
// fleet over the full 24-query pool-generation horizon produces an
// identical result at -parallel 1 and -parallel GOMAXPROCS.
// TestFleetPhasedMatchesRun pins the phased Build/Simulate API to the
// one-shot Run path: same Config ⇒ identical Result, at every parallelism
// level, because each shard owns its network and RNG regardless of how the
// phases are batched. This is what lets the benchmarks time setup and
// steady state separately without measuring a different simulation.
func TestFleetPhasedMatchesRun(t *testing.T) {
	cfg := testConfig(2)
	want, err := Run(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 4, 8} {
		f := New(cfg)
		if err := f.Build(context.Background(), parallel); err != nil {
			t.Fatalf("parallel=%d: Build: %v", parallel, err)
		}
		got, err := f.Simulate(context.Background(), parallel)
		if err != nil {
			t.Fatalf("parallel=%d: Simulate: %v", parallel, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallel=%d: phased result differs from Run:\nrun:    %+v\nphased: %+v",
				parallel, want, got)
		}
	}
}

// TestFleetSimulateRequiresBuild covers the consume-once contract of the
// phased API.
func TestFleetSimulateRequiresBuild(t *testing.T) {
	f := New(testConfig(0))
	if _, err := f.Simulate(context.Background(), 1); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Simulate before Build: err = %v, want ErrNotBuilt", err)
	}
	if err := f.Build(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Simulate(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Simulate(context.Background(), 0); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("second Simulate: err = %v, want ErrNotBuilt", err)
	}
}

func TestFleet10kDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 1, Clients: 10_000, Resolvers: 10, Poisoned: 1,
		BenignServers: 120, MaliciousServers: 60,
	}
	seq, err := Run(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("10k fleet differs across parallelism:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.TotalClients != 10_000 || seq.PlantedResolvers != 1 || seq.SubvertedClients == 0 {
		t.Fatalf("10k fleet lost the attack: %+v", seq)
	}
}

func TestFleetHonestBaselineClean(t *testing.T) {
	res, err := Run(context.Background(), testConfig(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubvertedClients != 0 || res.ShiftedClients != 0 || res.PlantedResolvers != 0 {
		t.Fatalf("honest fleet reports subversion: %+v", res)
	}
	if res.TotalClients != 240 || res.ChronosClients+res.ClassicClients != 240 {
		t.Fatalf("population accounting broken: %+v", res)
	}
	if res.MeanAttackerFraction != 0 {
		t.Fatalf("honest pools contain attacker servers: %v", res.MeanAttackerFraction)
	}
}

func TestFleetPoisoningAmplifies(t *testing.T) {
	res, err := Run(context.Background(), testConfig(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlantedResolvers != 1 {
		t.Fatalf("defrag chain did not land: %+v", res)
	}
	// The poisoned resolver is the Zipf head: a large slice of the whole
	// population falls to a single poisoned cache.
	if res.SubvertedFraction < 0.2 {
		t.Fatalf("single poisoned resolver subverted only %.3f of the population", res.SubvertedFraction)
	}
	if res.Amplification < 10 {
		t.Fatalf("amplification %.1f, want clients ≫ poisoned resolvers", res.Amplification)
	}
	head := res.Shards[0]
	if !head.Poisoned || head.ChronosSubverted == 0 || head.ClassicSubverted == 0 {
		t.Fatalf("head shard not subverted: %+v", head)
	}
	for _, s := range res.Shards[1:] {
		if s.ChronosSubverted != 0 || s.ClassicSubverted != 0 {
			t.Fatalf("unpoisoned shard %d subverted: %+v", s.Shard, s)
		}
	}
}

func TestFleetMitigationStopsDefrag(t *testing.T) {
	cfg := testConfig(2)
	cfg.ResolverCaps = true
	cfg.ClientCaps = true
	res, err := Run(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The §V caps reject both the long-TTL poisoned referral and the
	// 89-record forged response, so the population stays clean.
	if res.SubvertedClients != 0 {
		t.Fatalf("mitigated fleet still subverted: %+v", res)
	}
}

// TestFleetShiftMemoParallelismDeterministic pins the shard-local shift
// verdicts: each shard memoizes the verdict for a (pool size, malicious
// count) composition in its own map, and the verdict's seed derives from
// the fleet seed and the composition alone, never from shard or
// goroutine identity — so the shifted-client counts must be
// bit-identical however many workers run the shards.
func TestFleetShiftMemoParallelismDeterministic(t *testing.T) {
	cfg := testConfig(2) // two poisoned resolvers ⇒ shift verdicts exercised
	want, err := Run(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.ShiftedClients == 0 {
		t.Fatal("no shifted clients; the memo under test is never consulted")
	}
	for _, parallel := range []int{1, 2, 4, 8} {
		got, err := Run(context.Background(), cfg, parallel)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if got.ShiftedClients != want.ShiftedClients || got.ShiftedFraction != want.ShiftedFraction {
			t.Fatalf("parallel=%d: shifted %d (%.6f), want %d (%.6f)",
				parallel, got.ShiftedClients, got.ShiftedFraction,
				want.ShiftedClients, want.ShiftedFraction)
		}
		for i := range got.Shards {
			if got.Shards[i].ChronosShifted != want.Shards[i].ChronosShifted {
				t.Fatalf("parallel=%d: shard %d ChronosShifted %d, want %d",
					parallel, i, got.Shards[i].ChronosShifted, want.Shards[i].ChronosShifted)
			}
		}
	}
}

// gcPercent reads the process GC percent without changing it.
func gcPercent() uint64 {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestOverlappingSimulateRestoresGCPercent: fleet runs relax the
// process-wide GC percent while they simulate, and overlapping runs must
// leave it as they found it whichever finishes first. Two Simulate calls
// race from a common start several times over; then the interleaving a
// per-run save/restore gets wrong — A starts, B starts, A ends, B ends —
// is replayed deterministically on batchGC itself.
func TestOverlappingSimulateRestoresGCPercent(t *testing.T) {
	if os.Getenv("GOGC") != "" {
		t.Skip("an explicit GOGC disables the batch GC policy")
	}
	const before = 150
	defer debug.SetGCPercent(debug.SetGCPercent(before))
	for round := 0; round < 4; round++ {
		fleets := []*Fleet{New(testConfig(1)), New(testConfig(2))}
		for _, f := range fleets {
			if err := f.Build(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, f := range fleets {
			wg.Add(1)
			go func(f *Fleet) {
				defer wg.Done()
				<-start
				if _, err := f.Simulate(context.Background(), 1); err != nil {
					t.Error(err)
				}
			}(f)
		}
		close(start)
		wg.Wait()
		if got := gcPercent(); got != before {
			t.Fatalf("round %d: GC percent %d after two overlapping runs, want %d", round, got, before)
		}
	}

	endA := batchGC()
	endB := batchGC()
	endA()
	if got := gcPercent(); got != 200 {
		t.Fatalf("GC percent %d while run B is still going, want the relaxed 200", got)
	}
	endB()
	if got := gcPercent(); got != before {
		t.Fatalf("GC percent %d after A then B finished, want %d", got, before)
	}
}

// TestShardClientsSharePoolStates guards the population sharing that
// makes fleet scale: the Chronos rows of a shard absorb the same few
// responses from their resolver, so they must end in a few shared pool
// states. Rows in one state get views of the same memory, so distinct
// (first element, length) pairs count the states. A key that silently
// stopped matching would give every row its own state and still pass
// every other test. The fleet has chronosbench's shape at 10k clients.
func TestShardClientsSharePoolStates(t *testing.T) {
	cfg := Config{
		Seed: 1, Clients: 10_000, Resolvers: 32,
		Poisoned: 1, PoolQueries: 6, PoisonQuery: 2,
		BenignServers: 120, MaliciousServers: 60,
	}.withDefaults()
	p := plan(cfg)[0]
	s, err := buildShard(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	s.net.Run(s.end)
	type view struct {
		first *chronos.PoolEntry
		n     int
	}
	states := make(map[view]bool)
	for r := 0; r < s.pop.Len(); r++ {
		v := s.pop.PoolView(r)
		var first *chronos.PoolEntry
		if len(v) > 0 {
			first = &v[0]
		}
		states[view{first, len(v)}] = true
	}
	t.Logf("%d Chronos rows in %d pool states", s.pop.Len(), len(states))
	// Measured: 2,419 clients in 143 states, one per distinct pool.
	const ceiling = 143
	if len(states) > ceiling {
		t.Fatalf("%d Chronos rows hold %d distinct pool states, ceiling %d", s.pop.Len(), len(states), ceiling)
	}
}

// TestShardSimulateAllocCeiling holds the simulate phase of chronosbench's
// head shard — shard 0 of 250k clients behind 79 resolvers, the poisoned
// one — to its measured allocations per client. Clients are pointer-free
// rows with no timers or closures of their own, so what allocates is the
// resolver, the attacker, the pool states and the shift verdicts, none of
// them per client: a slide back to per-client heap objects costs at least
// one allocation per client and fails here.
func TestShardSimulateAllocCeiling(t *testing.T) {
	cfg := Config{
		Seed: 1, Clients: 250_000, Resolvers: 79,
		Poisoned: 1, PoolQueries: 6, PoisonQuery: 2,
		BenignServers: 120, MaliciousServers: 60,
	}.withDefaults()
	p := plan(cfg)[0]
	var before, after runtime.MemStats
	// The first run pays the process's one-time allocations.
	for run := 0; run < 2; run++ {
		s, err := buildShard(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		s.simulate(cfg)
		runtime.ReadMemStats(&after)
	}
	perClient := float64(after.Mallocs-before.Mallocs) / float64(p.clients)
	// Measured with go1.24: 1,211 allocations for 71,274 clients.
	const ceiling = 0.02
	t.Logf("%d allocations, %.4f per client (ceiling %v)", after.Mallocs-before.Mallocs, perClient, ceiling)
	if perClient > ceiling {
		t.Fatalf("simulate allocates %.4f times per client, ceiling %v", perClient, ceiling)
	}
}

// TestBuildAllocsIndependentOfClients holds Build to a fixed number of
// allocations per shard, however many clients the shard holds: rows are
// allocated once at the length the plan knows, and ordering them takes a
// fixed number of scratch arrays. One resolver and server shape at 10k and
// 40k clients must differ by at most a few allocations. Measured with
// go1.24: 1,385 and 1,386 (rows grown by append read 1,796 and 1,811).
func TestBuildAllocsIndependentOfClients(t *testing.T) {
	allocs := func(clients int) float64 {
		cfg := Config{
			Seed: 1, Clients: clients, Resolvers: 1,
			Poisoned: 1, PoolQueries: 6, PoisonQuery: 2,
			BenignServers: 120, MaliciousServers: 60,
		}.withDefaults()
		p := plan(cfg)[0]
		return testing.AllocsPerRun(4, func() {
			if _, err := buildShard(cfg, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(40_000)
	t.Logf("Build allocations: %v at 10k clients, %v at 40k", small, large)
	if large-small > 4 {
		t.Fatalf("Build allocates %v times at 40k clients and %v at 10k: it allocates per row", large, small)
	}
}

// referenceClients adds a shard's clients as per-client objects behind
// its resolver, each on its own timer chain: a chronos.New client that
// runs BuildPool from its start timer and stops after it, and an
// ntpclient.Client that stops after Start.
func referenceClients(s *shardState, cfg Config, chronosStarts, classicStarts []time.Duration) ([]*chronos.Client, []*ntpclient.Client) {
	chronosClients := make([]*chronos.Client, len(chronosStarts))
	for i, d := range chronosStarts {
		c := chronos.New(s.host, &clock.Clock{}, s.resolver, chronosConfig(cfg))
		chronosClients[i] = c
		s.net.After(s.epoch.Add(d).Sub(s.net.Now()), func() {
			c.BuildPool(func(error) { c.Stop() })
		})
	}
	classicClients := make([]*ntpclient.Client, len(classicStarts))
	for i, d := range classicStarts {
		c := ntpclient.New(s.host, &clock.Clock{}, s.resolver)
		classicClients[i] = c
		s.net.After(s.epoch.Add(d).Sub(s.net.Now()), func() {
			c.Start(func(error) { c.Stop() })
		})
	}
	return chronosClients, classicClients
}

// compareWithReference builds shard p of cfg from the given starts twice,
// as rows and as per-client reference objects, runs both to the horizon,
// and requires identical pools, pool counters, classic server sets and
// resolver counters.
func compareWithReference(t *testing.T, cfg Config, p shardPlan, chronosStarts, classicStarts []time.Duration) {
	t.Helper()
	rows, err := newShard(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.addRows(cfg, chronosStarts, classicStarts); err != nil {
		t.Fatal(err)
	}
	ref, err := newShard(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	chronosClients, classicClients := referenceClients(ref, cfg, chronosStarts, classicStarts)
	for _, s := range []*shardState{rows, ref} {
		if err := s.addAttacker(cfg); err != nil {
			t.Fatal(err)
		}
		s.net.Run(s.end)
	}
	for i, c := range chronosClients {
		if got, want := rows.pop.PoolView(i), c.PoolView(); !slices.Equal(got, want) {
			t.Fatalf("Chronos row %d: pool %v, per-client %v", i, got, want)
		}
		if got, want := rows.pop.Stats(i), c.Stats(); got != want {
			t.Fatalf("Chronos row %d: stats %+v, per-client %+v", i, got, want)
		}
	}
	for i, c := range classicClients {
		var got []simnet.Addr
		for _, e := range rows.classic.PoolView(i) {
			got = append(got, simnet.Addr{IP: e.IP, Port: ntpwire.Port})
		}
		if want := c.Servers(); !slices.Equal(got, want) {
			t.Fatalf("classic row %d: servers %v, per-client %v", i, got, want)
		}
	}
	if got, want := rows.resolver.Stats(), ref.resolver.Stats(); got != want {
		t.Fatalf("resolver stats %+v, per-client %+v", got, want)
	}
	if rows.att != nil && core.GluePoisoned(rows.resolver) != core.GluePoisoned(ref.resolver) {
		t.Fatal("the attack landed on one side only")
	}
}

// TestRowsMatchPerClientClients pins a shard's rows to the per-client
// objects they replace: one Chronos client, or classic client, per row,
// behind the same resolver and started at the same instants. Ties at one
// virtual nanosecond must order as the per-client timers did.
func TestRowsMatchPerClientClients(t *testing.T) {
	chronosbench := Config{
		Seed: 1, Clients: 10_000, Resolvers: 32,
		Poisoned: 1, PoolQueries: 6, PoisonQuery: 2,
		BenignServers: 120, MaliciousServers: 60,
	}.withDefaults()
	for _, tc := range []struct {
		name string
		cfg  Config
		// tie edits the drawn starts.
		tie func(cfg Config, chronosStarts, classicStarts []time.Duration)
	}{
		{"chronosbench shape", chronosbench, nil},
		{"Chronos rows on one nanosecond", chronosbench, func(_ Config, cs, _ []time.Duration) {
			for i := 1; i < len(cs); i += 3 {
				cs[i] = cs[i-1]
			}
		}},
		{"Chronos query and classic start on one nanosecond", chronosbench, func(cfg Config, cs, cl []time.Duration) {
			// A classic start on a row's first query sorts after it, on
			// a later query before it.
			for i := 0; i+1 < len(cl) && i < len(cs); i += 2 {
				cl[i] = cs[i]
				cl[i+1] = cs[i] + time.Duration(1+i%(cfg.PoolQueries-1))*chronos.PoolQueryInterval
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := plan(tc.cfg)[0]
			draw, err := newShard(tc.cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			chronosStarts, classicStarts := draw.drawStarts(tc.cfg)
			if tc.tie != nil {
				tc.tie(tc.cfg, chronosStarts, classicStarts)
			}
			compareWithReference(t, tc.cfg, p, chronosStarts, classicStarts)
		})
	}
}

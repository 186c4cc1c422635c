package fleet

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"

	"chronosntp/internal/core"
	"chronosntp/internal/mitigation"
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

func TestFleetMechanisms(t *testing.T) {
	for _, mech := range []core.Mechanism{core.BGPHijack, core.BGPHijackPersistent} {
		cfg := testConfig(1)
		cfg.Mechanism = mech
		res, err := Run(context.Background(), cfg, 0)
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if res.PlantedResolvers != 1 {
			t.Fatalf("%v: hijack answered no queries", mech)
		}
		if res.SubvertedClients == 0 {
			t.Fatalf("%v: no clients subverted", mech)
		}
	}
}

func TestFleetMitigationStopsDefrag(t *testing.T) {
	cfg := testConfig(2)
	cfg.ResolverPolicy = mitigation.PaperResolverPolicy()
	cfg.ClientPolicy = mitigation.PaperClientPolicy()
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

func TestFleetWireStubFidelity(t *testing.T) {
	cfg := testConfig(1)
	cfg.Clients = 60
	cfg.Resolvers = 3
	cfg.WireStubs = true
	res, err := Run(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlantedResolvers != 1 || res.SubvertedClients == 0 {
		t.Fatalf("wire-stub fleet lost the attack: planted=%d subverted=%d",
			res.PlantedResolvers, res.SubvertedClients)
	}
}

// TestFleetShiftMemoParallelismDeterministic pins the fleet-shared
// shiftsim memo: the verdict for a (pool size, malicious count)
// composition is computed once per fleet run by whichever shard gets
// there first, so the shifted-client counts must be bit-identical no
// matter how many workers race to populate the memo — the composition
// seed derives from the fleet seed alone, never from shard or goroutine
// identity.
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

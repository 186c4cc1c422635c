package runner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronosntp/internal/core"
)

// smallGrid is a fast but real grid: 2 mechanisms × 2 poison queries × 2
// seeds of a reduced scenario (~3 ms per trial).
func smallGrid() Grid {
	return Grid{
		Base: core.Config{
			PoolQueries:      6,
			BenignServers:    40,
			MaliciousServers: 15,
		},
		Seeds:         Seeds(1, 2),
		Mechanisms:    []core.Mechanism{core.Defrag, core.BGPHijack},
		PoisonQueries: []int{2, 4},
	}
}

func TestGridTrials(t *testing.T) {
	trials := smallGrid().Trials()
	if len(trials) != 8 {
		t.Fatalf("trials = %d, want 8", len(trials))
	}
	// Consecutive indices are replicas of one point.
	if trials[0].Point != trials[1].Point || trials[0].Config.Seed == trials[1].Config.Seed {
		t.Errorf("replica layout broken: %+v / %+v", trials[0], trials[1])
	}
	if trials[1].Point == trials[2].Point {
		t.Errorf("points 1 and 2 should differ: %q", trials[1].Point)
	}
	points := Points(trials)
	if len(points) != 4 {
		t.Errorf("points = %v, want 4", points)
	}
	if want := "mechanism=defrag-injection poison-query=2"; points[0] != want {
		t.Errorf("point label = %q, want %q", points[0], want)
	}
}

// TestGridTrialsOnce: a toggle that resolves several grid points to one
// label and config (here by pinning the swept mechanism) keeps one set of
// replicas for them, so the merged point holds as many trials as it has
// seeds and no simulation runs twice. Points a toggle leaves apart keep
// theirs.
func TestGridTrialsOnce(t *testing.T) {
	g := smallGrid()
	g.Toggles = []Toggle{NoToggle(), {Name: "pin", Apply: func(c *core.Config) { c.Mechanism = core.BGPHijackPersistent }}}
	trials := g.Trials()
	// none: 2 mechanisms × 2 queries × 2 seeds; pin: 2 queries × 2 seeds.
	if len(trials) != 12 {
		t.Fatalf("trials = %d, want 12", len(trials))
	}
	seen := make(map[Trial]bool)
	perPoint := make(map[string]int)
	for _, tr := range trials {
		if seen[tr] {
			t.Fatalf("trial %+v appears twice", tr)
		}
		seen[tr] = true
		perPoint[tr.Point]++
	}
	points := Points(trials)
	if len(points) != 6 {
		t.Fatalf("points = %v, want 6", points)
	}
	for _, p := range points {
		if perPoint[p] != len(g.Seeds) {
			t.Errorf("point %q has %d trials, want %d", p, perPoint[p], len(g.Seeds))
		}
	}
	if want := "mechanism=bgp-hijack-24h poison-query=2 defence=pin"; points[4] != want {
		t.Errorf("merged point label = %q, want %q", points[4], want)
	}
}

// TestRunDeterminism is the core guarantee: the same grid yields
// element-wise identical, trial-ordered results at -parallel 1 and
// -parallel 8, so any reduction that reads them in order is bit-identical.
func TestRunDeterminism(t *testing.T) {
	trials := smallGrid().Trials()

	res1, err := Run(context.Background(), trials, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	res8, err := Run(context.Background(), trials, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}

	if len(res1) != len(trials) || len(res8) != len(trials) {
		t.Fatalf("result counts: %d / %d, want %d", len(res1), len(res8), len(trials))
	}
	for i := range res1 {
		if !reflect.DeepEqual(res1[i], res8[i]) {
			t.Errorf("trial %d: parallel-1 and parallel-8 results differ:\n%+v\n%+v", i, res1[i], res8[i])
		}
	}

	// Each result belongs to its own trial, and the attacked trials
	// actually measured an attack.
	attacked := false
	for i, res := range res1 {
		if res.Mechanism != trials[i].Config.Mechanism || res.PoisonQuery != trials[i].Config.PoisonQuery {
			t.Errorf("result %d is %v at query %d, trial is %v at query %d", i,
				res.Mechanism, res.PoisonQuery, trials[i].Config.Mechanism, trials[i].Config.PoisonQuery)
		}
		attacked = attacked || res.AttackerFraction > 0
	}
	if !attacked {
		t.Error("no trial measured a nonzero attacker fraction")
	}
}

// TestRunCancellation injects a failing trial and asserts the pool aborts
// early: the error surfaces and later trials never start.
func TestRunCancellation(t *testing.T) {
	boom := errors.New("boom")
	const n = 64
	trials := make([]Trial, n)
	for i := range trials {
		trials[i] = Trial{Point: "stub", Config: core.Config{Seed: int64(i)}}
	}
	var started atomic.Int64
	_, err := Run(context.Background(), trials, Options{
		Parallel: 2,
		Execute: func(tr Trial) (*core.Result, error) {
			started.Add(1)
			if tr.Config.Seed == 3 {
				return nil, boom
			}
			time.Sleep(time.Millisecond)
			return &core.Result{}, nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "trial 3") {
		t.Errorf("error does not identify the trial: %v", err)
	}
	if got := started.Load(); got >= n {
		t.Errorf("all %d trials ran despite the early failure", got)
	}
}

// TestRunExternalCancel covers a caller-driven abort.
func TestRunExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	trials := make([]Trial, 32)
	for i := range trials {
		trials[i] = Trial{Point: "stub"}
	}
	var once sync.Once
	_, err := Run(ctx, trials, Options{
		Parallel: 2,
		Execute: func(Trial) (*core.Result, error) {
			once.Do(cancel)
			return &core.Result{}, nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEach(t *testing.T) {
	var hits atomic.Int64
	if err := ForEach(context.Background(), 20, 4, func(i int) error {
		hits.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 20 {
		t.Errorf("hits = %d, want 20", hits.Load())
	}
	boom := errors.New("boom")
	err := ForEach(context.Background(), 20, 4, func(i int) error {
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

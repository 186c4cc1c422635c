package runner

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronosntp/internal/core"
)

// smallConfigs are fast but real scenarios: 2 mechanisms × 2 poison
// queries × 2 seeds of the default scenario with a smaller attacker farm.
func smallConfigs() []core.Config {
	var cfgs []core.Config
	for _, mech := range []core.Mechanism{core.Defrag, core.BGPHijack} {
		for _, q := range []int{2, 4} {
			for seed := int64(1); seed <= 2; seed++ {
				cfgs = append(cfgs, core.Config{Seed: seed, Mechanism: mech, PoisonQuery: q, MaliciousServers: 15})
			}
		}
	}
	return cfgs
}

// runConfigs runs every config's scenario through Map.
func runConfigs(cfgs []core.Config, parallel int) ([]*core.Result, error) {
	return Map(context.Background(), len(cfgs), parallel, nil,
		func(i int) (*core.Result, error) { return core.Run(cfgs[i]) })
}

// TestMapDeterminism is the core guarantee: the same configs yield
// element-wise identical, task-ordered results at -parallel 1 and
// -parallel 8, so any reduction that reads them in order is bit-identical.
func TestMapDeterminism(t *testing.T) {
	cfgs := smallConfigs()

	res1, err := runConfigs(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res8, err := runConfigs(cfgs, 8)
	if err != nil {
		t.Fatal(err)
	}

	if len(res1) != len(cfgs) || len(res8) != len(cfgs) {
		t.Fatalf("result counts: %d / %d, want %d", len(res1), len(res8), len(cfgs))
	}
	for i := range res1 {
		if !reflect.DeepEqual(res1[i], res8[i]) {
			t.Errorf("task %d: parallel-1 and parallel-8 results differ:\n%+v\n%+v", i, res1[i], res8[i])
		}
	}

	// Each result belongs to its own config, and the attacked scenarios
	// actually measured an attack.
	attacked := false
	for i, res := range res1 {
		if res.Mechanism != cfgs[i].Mechanism || res.PoisonQuery != cfgs[i].PoisonQuery {
			t.Errorf("result %d is %v at query %d, config is %v at query %d", i,
				res.Mechanism, res.PoisonQuery, cfgs[i].Mechanism, cfgs[i].PoisonQuery)
		}
		attacked = attacked || res.AttackerFraction > 0
	}
	if !attacked {
		t.Error("no task measured a nonzero attacker fraction")
	}
}

// TestMapCancellation injects a failing task and asserts the pool aborts
// early: the error surfaces and later tasks never start.
func TestMapCancellation(t *testing.T) {
	boom := errors.New("boom")
	const n = 64
	var started atomic.Int64
	_, err := Map(context.Background(), n, 2, nil, func(i int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, boom
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := started.Load(); got >= n {
		t.Errorf("all %d tasks ran despite the early failure", got)
	}
}

// TestMapExternalCancel covers a caller-driven abort.
func TestMapExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := Map(ctx, 32, 2, nil, func(i int) (int, error) {
		once.Do(cancel)
		return i, nil
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

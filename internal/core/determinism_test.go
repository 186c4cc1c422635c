package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"chronosntp/internal/chronos"
)

// TestDeterminism verifies the whole-stack reproducibility contract: two
// scenario runs with the same seed produce byte-identical measurements,
// and a different seed produces a different (but still valid) run.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) *Result {
		s, err := NewScenario(Config{
			Seed: seed, Mechanism: Defrag, PoisonQuery: 12,
			SyncDuration: 30 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(7)
	b := run(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
	c := run(8)
	if reflect.DeepEqual(a.PerQuery, c.PerQuery) && a.ChronosOffset == c.ChronosOffset {
		t.Error("different seeds produced identical runs (suspicious)")
	}
	// Both seeds still satisfy the paper's invariant.
	for _, r := range []*Result{a, c} {
		if r.PoolMalicious != 89 || r.AttackerFraction < 2.0/3.0 {
			t.Errorf("invariant violated: %+v", r)
		}
	}
}

// TestLateAttackHasNoEffectOnEarlierQueries checks the causal structure of
// the per-query series: queries before the poisoning are untouched.
func TestLateAttackHasNoEffectOnEarlierQueries(t *testing.T) {
	attacked, err := NewScenario(Config{Seed: 9, Mechanism: Defrag, PoisonQuery: 20})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := attacked.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ares.PerQuery[:19] {
		if q.Malicious != 0 {
			t.Fatalf("query %d malicious before poisoning: %+v", q.Query, q)
		}
	}
	if ares.PerQuery[19].Malicious != 89 {
		t.Errorf("query 20 = %+v, want the 89-record injection", ares.PerQuery[19])
	}
}

// TestConsensusDeterminism runs the consensus defence repeatedly from one
// seed: the pool the client builds and the whole Result, offset included,
// must come out identical every time.
func TestConsensusDeterminism(t *testing.T) {
	var wantPool []chronos.PoolEntry
	var want *Result
	for run := 0; run < 5; run++ {
		s, err := NewScenario(Config{Seed: 1, Mechanism: Defrag, PoisonQuery: 12, Consensus: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		pool := slices.Clone(s.chronosC.PoolView())
		if run == 0 {
			wantPool, want = pool, res
			continue
		}
		if !slices.Equal(pool, wantPool) {
			t.Fatalf("run %d: pool %v, first run %v", run, pool, wantPool)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("run %d diverged:\n got  %+v\n want %+v", run, res, want)
		}
	}
}

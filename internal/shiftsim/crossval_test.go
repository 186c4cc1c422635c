package shiftsim

import (
	"math/rand"
	"testing"
	"time"

	"chronosntp/internal/analysis"
	"chronosntp/internal/chronos"
	"chronosntp/internal/stats"
)

// TestCrossValidationAgainstClosedForm is the three-way consistency check
// behind the paper's security-bound reproduction, across a (pool size ×
// malicious fraction × run length) grid:
//
//   - stats.ExpectedTrialsToRun — the closed form the paper cites;
//   - analysis.SimulateRoundsToShift — the bare hypergeometric Monte
//     Carlo;
//   - the shiftsim engine — the same statistic measured through the
//     actual Chronos round loop (real without-replacement sampling, real
//     C1/C2 evaluation, real panic recovery between runs).
//
// For every feasible grid point the closed form must lie inside the
// engine's 95% confidence interval, and the bare Monte-Carlo estimate
// must agree with the closed form within that same interval width.
func TestCrossValidationAgainstClosedForm(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo grid")
	}
	const trials = 800
	grid := []struct {
		pool, mal, m, c int
	}{
		// Paper's poisoned pool (≈ 2/3 malicious) at several run lengths.
		{133, 89, 15, 1},
		{133, 89, 15, 2},
		{133, 89, 15, 4},
		// Half-malicious mid-size pool.
		{100, 67, 15, 3},
		// Small pools with the proportionally smaller sample Chronos uses.
		{60, 40, 9, 2},
		{60, 45, 9, 3},
		{40, 30, 9, 2},
	}
	for gi, g := range grid {
		trim := g.m / 3
		p := stats.HypergeomTail(g.pool, g.mal, g.m, g.m-trim)
		closed, err := stats.ExpectedTrialsToRun(p, g.c)
		if err != nil {
			t.Fatal(err)
		}
		if closed > 3000 {
			t.Fatalf("grid point %+v infeasible for simulation (E[T]=%.0f); choose another", g, closed)
		}

		// Each grid point gets its own seed block so points draw
		// independent RNG streams.
		rs, err := Sample(Config{
			PoolSize: g.pool, Malicious: g.mal,
			Client:    chronos.Config{SampleSize: g.m},
			RunLength: g.c,
			Horizon:   20 * 365 * 24 * time.Hour,
		}, int64(1001*(gi+1)), trials)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, 0, trials)
		for _, r := range rs {
			if r.RoundsToRun == 0 {
				t.Fatalf("%+v: a trial never completed its capture run", g)
			}
			xs = append(xs, float64(r.RoundsToRun))
		}
		engine, err := stats.Describe(xs)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := engine.Mean-engine.CI95, engine.Mean+engine.CI95
		if closed < lo || closed > hi {
			t.Errorf("%+v: closed form %.2f outside engine 95%% CI [%.2f, %.2f] (p=%.4f)",
				g, closed, lo, hi, p)
		}

		mc := analysis.SimulateRoundsToShift(rand.New(rand.NewSource(7)), g.pool, g.mal, g.m, trim, g.c, trials)
		if diff := mc - closed; diff < -engine.CI95 || diff > engine.CI95 {
			t.Errorf("%+v: hypergeometric Monte-Carlo %.2f vs closed form %.2f differ beyond ±%.2f",
				g, mc, closed, engine.CI95)
		}
	}
}

// TestTimeToShiftMatchesClosedForm validates the headline metric itself:
// against the paper's poisoned pool, the greedy attacker's empirical
// rounds-to-100ms must agree with analysis.TimeToShift at the strategy's
// actual per-round step, within the Monte-Carlo 95% CI.
func TestTimeToShiftMatchesClosedForm(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo")
	}
	const trials = 800
	cfg := Config{Horizon: 365 * 24 * time.Hour}
	resolved := cfg.withDefaults()
	m := resolved.Client.SampleSize
	p := analysis.RoundWinProb(resolved.PoolSize, resolved.Malicious, m, chronos.Trim(m))
	closed, err := analysis.TimeToShift(resolved.Target, MaxStep, p, chronos.SyncInterval)
	if err != nil {
		t.Fatal(err)
	}

	rs, err := Sample(cfg, 1, trials)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 0, trials)
	for _, r := range rs {
		if !r.Shifted {
			t.Fatal("a poisoned-pool trial never shifted within a year")
		}
		xs = append(xs, float64(r.RoundsToShift))
	}
	s, err := stats.Describe(xs)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Mean-s.CI95, s.Mean+s.CI95
	if closed.ExpectedRounds < lo || closed.ExpectedRounds > hi {
		t.Errorf("closed-form %.2f rounds outside empirical 95%% CI [%.2f, %.2f]",
			closed.ExpectedRounds, lo, hi)
	}
}

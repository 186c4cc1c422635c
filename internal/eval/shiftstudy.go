package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"chronosntp/internal/analysis"
	"chronosntp/internal/chronos"
	"chronosntp/internal/mitigation"
	"chronosntp/internal/runner"
	"chronosntp/internal/shiftsim"
	"chronosntp/internal/stats"
)

// E10's target shift and horizon when left at 0.
const (
	shiftStudyTarget  = 100 * time.Millisecond
	shiftStudyHorizon = 7 * 24 * time.Hour
)

// ShiftStudy (E10) is the long-horizon empirical counterpart of the E4
// closed-form security-bound table: for every (attacker pool fraction ×
// attacker strategy × §V mitigation) grid point it runs the shiftsim
// engine — the actual Chronos round loop over virtual weeks — and
// cross-tabulates the measured time-to-Target-shift against the
// closed-form prediction (analysis.TimeToShift at the greedy per-round
// step).
//
// The §V-caps axis re-derives each composition under the paper's
// client-side mitigation: the poisoned response may contribute at most
// MaxAddrsPerResponse addresses, so the attacker's pool share collapses
// and every strategy is pushed back into the "decades" regime.
//
// target/horizon default to 100 ms / 7 days; strategy "" or "all" sweeps
// every registered strategy. Trials fan across the worker pool and reduce
// by trial index, so the table is bit-identical at any parallelism.
func ShiftStudy(seed int64, trials, parallel int, target, horizon time.Duration, strategy string) (*Result, error) {
	return ShiftStudyCheckpointed(seed, trials, parallel, target, horizon, strategy, nil)
}

// shiftPoint is one E10 grid point before execution.
type shiftPoint struct {
	pool, malicious int
	strategy        string
	mitigated       bool
}

// shiftGrid resolves the E10 defaults and expands the grid. The returned
// addrCap is the §V client-side per-response address cap applied on the
// mitigated axis.
func shiftGrid(target, horizon time.Duration, strategy string) (points []shiftPoint, rTarget, rHorizon time.Duration, addrCap int, err error) {
	if target == 0 {
		target = shiftStudyTarget
	}
	if horizon == 0 {
		horizon = shiftStudyHorizon
	}
	strategyNames := shiftsim.Names()
	if strategy != "" && strategy != "all" {
		if _, err := shiftsim.ByName(strategy); err != nil {
			return nil, 0, 0, 0, err
		}
		strategyNames = []string{strategy}
	}

	// The paper's 133-member poisoned pool at four attacker shares: below
	// the proof's 1/3 boundary, at it, at one half, and at the poisoned
	// ≈ 2/3 supermajority.
	pools := []struct{ pool, malicious int }{
		{133, 33},
		{133, 44},
		{133, 67},
		{133, 89},
	}
	addrCap = mitigation.PaperClientPolicy().MaxAddrsPerResponse

	for _, pc := range pools {
		for _, sn := range strategyNames {
			for _, mitigated := range []bool{false, true} {
				points = append(points, shiftPoint{pc.pool, pc.malicious, sn, mitigated})
			}
		}
	}
	return points, target, horizon, addrCap, nil
}

// ShiftStudyTasks is the task count of an E10 run (grid points × trials) —
// the Total a checkpoint for that run must be created with.
func ShiftStudyTasks(trials int, target, horizon time.Duration, strategy string) (int, error) {
	if trials < 1 {
		trials = 1
	}
	points, _, _, _, err := shiftGrid(target, horizon, strategy)
	if err != nil {
		return 0, err
	}
	return len(points) * trials, nil
}

// ShiftStudyFingerprint fingerprints an E10 run configuration over its
// *resolved* parameters (defaults applied), so a checkpoint written at the
// defaults resumes under the equivalent explicit flags and a checkpoint
// from a different configuration is rejected.
func ShiftStudyFingerprint(seed int64, trials int, target, horizon time.Duration, strategy string) string {
	if trials < 1 {
		trials = 1
	}
	if target == 0 {
		target = shiftStudyTarget
	}
	if horizon == 0 {
		horizon = shiftStudyHorizon
	}
	if strategy == "" {
		strategy = "all"
	}
	return runner.Fingerprint(struct {
		Experiment string        `json:"experiment"`
		Seed       int64         `json:"seed"`
		Trials     int           `json:"trials"`
		Target     time.Duration `json:"target"`
		Horizon    time.Duration `json:"horizon"`
		Strategy   string        `json:"strategy"`
	}{"E10", seed, trials, target, horizon, strategy})
}

// ShiftStudyCheckpointed is ShiftStudy with optional checkpoint/resume:
// with a non-nil ckpt every completed trial's shiftsim.Result is persisted
// as it finishes, and trials the checkpoint already holds are restored
// instead of re-run. Because each trial is deterministic given its seed
// and the reduction is keyed by trial index, a resumed run's table is
// bit-identical to an uninterrupted one.
func ShiftStudyCheckpointed(seed int64, trials, parallel int, target, horizon time.Duration, strategy string, ckpt *runner.Checkpoint) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	points, target, horizon, addrCap, err := shiftGrid(target, horizon, strategy)
	if err != nil {
		return nil, err
	}

	results := make([][]*shiftsim.Result, len(points))
	for i := range results {
		results[i] = make([]*shiftsim.Result, trials)
	}
	err = runner.ForEachCheckpointed(context.Background(), len(points)*trials, parallel, ckpt,
		func(i int, raw json.RawMessage) error {
			var res shiftsim.Result
			if err := json.Unmarshal(raw, &res); err != nil {
				return fmt.Errorf("eval: restoring E10 trial %d: %w", i, err)
			}
			results[i/trials][i%trials] = &res
			return nil
		},
		func(i int) (interface{}, error) {
			pi, k := i/trials, i%trials
			p := points[pi]
			pool, malicious := p.pool, p.malicious
			if p.mitigated {
				pool, malicious = mitigatedComposition(pool, malicious, addrCap)
			}
			strat, err := shiftsim.ByName(p.strategy)
			if err != nil {
				return nil, err
			}
			res, err := shiftsim.Run(shiftsim.Config{
				// Decorrelate the per-point seed blocks.
				Seed:      seed + int64(pi)*10_007 + int64(k),
				PoolSize:  pool,
				Malicious: malicious,
				Strategy:  strat,
				Target:    target,
				Horizon:   horizon,
				RunLength: -1,
			})
			if err != nil {
				return nil, err
			}
			results[pi][k] = res
			return res, nil
		})
	if err != nil {
		return nil, err
	}

	payload := &ShiftStudyPayload{Target: target, Horizon: horizon, AddrCap: addrCap}
	for pi, p := range points {
		pool, malicious := p.pool, p.malicious
		if p.mitigated {
			pool, malicious = mitigatedComposition(pool, malicious, addrCap)
		}
		var shifted int
		var hits, times, rounds, panics, pushes []float64
		for _, r := range results[pi] {
			hit := 0.0
			if r.Shifted {
				hit = 1
				shifted++
				times = append(times, float64(r.TimeToShift))
				rounds = append(rounds, float64(r.RoundsToShift))
			}
			hits = append(hits, hit)
			panics = append(panics, float64(r.Panics))
			pushes = append(pushes, float64(r.MaxPush))
		}
		payload.Rows = append(payload.Rows, ShiftRow{
			Pool: pool, Malicious: malicious,
			Strategy: p.strategy, Mitigated: p.mitigated,
			Hit: describe(hits), ShiftedCount: shifted,
			TimeToShift: describe(times), Rounds: describe(rounds),
			Panics: describe(panics), MaxPush: describe(pushes),
		})
	}
	return &Result{Meta: newMeta("E10", seed, trials), Payload: payload}, nil
}

// fmtLongDur renders a minutes-to-hours duration metric (observed in
// nanoseconds) in duration notation — the ms rendering fmtDur uses for
// clock offsets is unreadable at this scale.
func fmtLongDur(s stats.Summary) string {
	mean := time.Duration(int64(s.Mean)).Round(time.Second)
	if s.N <= 1 {
		return mean.String()
	}
	ci := time.Duration(int64(s.CI95)).Round(time.Second)
	return fmt.Sprintf("%s ± %s", mean, ci)
}

// mitigatedComposition applies the §V client cap to a poisoned-pool
// composition: the benign servers stay, the attacker's injection is
// truncated to the per-response address cap.
func mitigatedComposition(pool, malicious, addrCap int) (int, int) {
	if addrCap <= 0 || malicious <= addrCap {
		return pool, malicious
	}
	benign := pool - malicious
	return benign + addrCap, addrCap
}

// closedFormCell renders the closed-form expected effort for a pool
// composition (the same saturation rules as the E4 table). The sampling
// shape, per-round step and round interval are derived from the same
// defaults the engine resolves, so the comparison column cannot drift
// from the empirical ones.
func closedFormCell(pool, malicious int, target time.Duration) string {
	cc := chronos.NewRule(chronos.Config{}).Config()
	sample := cc.SampleSize
	if pool < sample {
		sample = pool
	}
	st, err := analysis.YearsToShift(pool, malicious, sample, chronos.Trim(sample), target,
		shiftsim.MaxStep, chronos.SyncInterval)
	if err != nil {
		return "-"
	}
	switch {
	case math.IsInf(st.Years, 1):
		return "never"
	case st.Years > 250:
		return fmt.Sprintf("%.3g years", st.Years)
	default:
		return st.Expected.Round(time.Second).String()
	}
}

// Package runner is the Monte-Carlo engine of the reproduction: it fans a
// grid of core.Configs (seeds × mechanisms × poison-query indices ×
// mitigation toggles) across a worker pool and streams the per-trial
// core.Results into a stats.Aggregator.
//
// Every simulation is deterministic given its seed, and the aggregation is
// an order-independent reduction keyed by trial index, so the aggregate of
// a grid is bit-identical at any parallelism level — `-parallel 1` and
// `-parallel 8` produce the same bytes.
//
// Long runs can persist progress through a Checkpoint (checkpoint.go): an
// append-only JSONL file holding one fsynced line per completed trial.
// Options.Checkpoint threads one through Run, and ForEachCheckpointed
// wraps the plain ForEach pool for callers with their own task loop (the
// E10 shift study). On resume the restored trials are replayed into the
// same per-index slots a live run fills, so — by the same
// order-independence argument — a killed-and-resumed run produces output
// bit-identical to an uninterrupted one. A partial trailing line (the
// artifact of a kill mid-append) is detected and truncated away; any
// other malformed content, a fingerprint mismatch, or a task-count
// mismatch is a hard error rather than a silent skip.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"chronosntp/internal/core"
	"chronosntp/internal/stats"
)

// Trial is one grid point instantiation: a fully resolved core.Config plus
// the index that keys the order-independent reduction.
type Trial struct {
	Index  int         // position in the grid expansion; reduction key
	Point  string      // grid-point label shared by all seeds of the point
	Config core.Config // fully resolved scenario configuration
}

// Metric names under which Feed records a core.Result.
const (
	MetricAttackerFraction   = "attacker-fraction"
	MetricPoolBenign         = "pool-benign"
	MetricPoolMalicious      = "pool-malicious"
	MetricPoolSize           = "pool-size"
	MetricPoisonPlanted      = "poison-planted"
	MetricChronosOffsetNs    = "chronos-offset-ns"
	MetricChronosMaxOffsetNs = "chronos-max-offset-ns"
	MetricPlainOffsetNs      = "plain-offset-ns"
)

// QueryMetric names the per-query pool-fraction series ("query-12/fraction"
// etc.), the Figure-1 curve aggregated across trials.
func QueryMetric(query int, field string) string {
	return fmt.Sprintf("query-%02d/%s", query, field)
}

// Feed records every scalar measurement of res (and the per-query
// Figure-1 series) into agg under t.Index.
func Feed(agg *stats.Aggregator, t Trial, res *core.Result) {
	agg.Observe(MetricAttackerFraction, t.Index, res.AttackerFraction)
	agg.Observe(MetricPoolBenign, t.Index, float64(res.PoolBenign))
	agg.Observe(MetricPoolMalicious, t.Index, float64(res.PoolMalicious))
	agg.Observe(MetricPoolSize, t.Index, float64(res.PoolSize))
	planted := 0.0
	if res.PoisonPlanted {
		planted = 1
	}
	agg.Observe(MetricPoisonPlanted, t.Index, planted)
	agg.Observe(MetricChronosOffsetNs, t.Index, float64(res.ChronosOffset))
	agg.Observe(MetricChronosMaxOffsetNs, t.Index, float64(res.ChronosMaxOffset))
	agg.Observe(MetricPlainOffsetNs, t.Index, float64(res.PlainOffset))
	for _, q := range res.PerQuery {
		agg.Observe(QueryMetric(q.Query, "benign"), t.Index, float64(q.Benign))
		agg.Observe(QueryMetric(q.Query, "malicious"), t.Index, float64(q.Malicious))
		agg.Observe(QueryMetric(q.Query, "fraction"), t.Index, q.Fraction())
	}
}

// Options tunes a Run.
type Options struct {
	// Parallel is the worker count; ≤0 means GOMAXPROCS.
	Parallel int
	// Execute runs one trial. Nil means the default scenario executor
	// (core.NewScenario + Run); tests substitute stubs.
	Execute func(Trial) (*core.Result, error)
	// OnResult, if non-nil, streams each successful trial as it completes.
	// Calls are serialized but arrive in completion order, not index order
	// — pair it with a stats.Aggregator (keyed by Trial.Index) for
	// order-independent reduction.
	OnResult func(Trial, *core.Result)
	// Checkpoint, if non-nil, persists every completed trial's core.Result
	// keyed by Trial.Index and skips (restoring instead) the trials the
	// checkpoint already holds. Restored trials still flow through
	// OnResult, so aggregates of a resumed run match an uninterrupted one
	// bit for bit.
	Checkpoint *Checkpoint
}

// ExecuteScenario is the default trial executor: wire the scenario and run
// it.
func ExecuteScenario(t Trial) (*core.Result, error) {
	s, err := core.NewScenario(t.Config)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Run executes every trial across the worker pool and returns the results
// in trial order (results[i] belongs to trials[i], whose Index is i).
//
// On the first trial error the remaining trials are cancelled — workers
// finish their in-flight trial and stop — and Run reports the failed
// trial's error (the lowest-index failure observed, for determinism). If
// ctx is cancelled externally, Run returns ctx.Err().
func Run(ctx context.Context, trials []Trial, opts Options) ([]*core.Result, error) {
	if len(trials) == 0 {
		return nil, nil
	}
	execute := opts.Execute
	if execute == nil {
		execute = ExecuteScenario
	}
	results := make([]*core.Result, len(trials))
	var mu sync.Mutex // serializes OnResult
	err := ForEachCheckpointed(ctx, len(trials), opts.Parallel, opts.Checkpoint,
		func(i int, raw json.RawMessage) error {
			t := trials[i]
			var res core.Result
			if err := json.Unmarshal(raw, &res); err != nil {
				return fmt.Errorf("runner: restoring trial %d (%s): %w", t.Index, t.Point, err)
			}
			results[i] = &res
			if opts.OnResult != nil {
				opts.OnResult(t, &res)
			}
			return nil
		},
		func(i int) (interface{}, error) {
			t := trials[i]
			res, err := execute(t)
			if err != nil {
				return nil, fmt.Errorf("runner: trial %d (%s): %w", t.Index, t.Point, err)
			}
			results[i] = res
			if opts.OnResult != nil {
				mu.Lock()
				opts.OnResult(t, res)
				mu.Unlock()
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MonteCarlo runs the trials and streams every result into a fresh
// aggregator via Feed. The returned results are in trial order; the
// aggregator's reductions are bit-identical at any parallelism.
func MonteCarlo(ctx context.Context, trials []Trial, parallel int) (*stats.Aggregator, []*core.Result, error) {
	agg := stats.NewAggregator()
	results, err := Run(ctx, trials, Options{
		Parallel: parallel,
		OnResult: func(t Trial, res *core.Result) { Feed(agg, t, res) },
	})
	if err != nil {
		return nil, nil, err
	}
	return agg, results, nil
}

// ForEach runs fn(i) for every i in [0, n) across a pool of parallel
// workers (≤0 means GOMAXPROCS), cancelling the remaining indices on the
// first error. It returns the lowest-index error observed, for
// determinism, or ctx.Err() if ctx was cancelled externally. It is the
// worker pool under Run and ForEachCheckpointed, and the scheduling core
// of experiment code whose trials are not core.Configs (e.g. the E5
// probe populations).
func ForEach(ctx context.Context, n, parallel int, fn func(i int) error) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	parallel = min(parallel, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		errAt    int
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil || i < errAt {
						firstErr, errAt = err, i
					}
					mu.Unlock()
					cancel()
				}
			}
		}()
	}

feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

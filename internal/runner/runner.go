// Package runner is the Monte-Carlo engine of the reproduction: it fans a
// grid of core.Configs (seeds × mechanisms × poison-query indices ×
// mitigation toggles) across a worker pool and returns the per-trial
// core.Results in trial order.
//
// A trial's position in the slice is its only identity: results[i]
// belongs to trials[i] however the workers interleave. Every simulation
// is deterministic given its seed and callers reduce each series in
// trial order, so the aggregate of a grid is bit-identical at any
// parallelism level — `-parallel 1` and `-parallel 8` produce the same
// bytes.
//
// Long runs can persist progress through a Checkpoint (checkpoint.go): an
// append-only JSONL file holding one fsynced line per completed trial.
// Options.Checkpoint threads one through Run, and ForEachCheckpointed
// wraps the plain ForEach pool for callers with their own task loop (the
// E10 shift study). On resume the restored trials are replayed into the
// same slots a live run fills, so a killed-and-resumed run produces
// output bit-identical to an uninterrupted one. A partial trailing line
// (the artifact of a kill mid-append) is detected and truncated away; any
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
)

// Trial is one grid point instantiation: a fully resolved core.Config plus
// the label of the point it replicates.
type Trial struct {
	Point  string      // grid-point label shared by all seeds of the point
	Config core.Config // fully resolved scenario configuration
}

// Options tunes a Run.
type Options struct {
	// Parallel is the worker count; ≤0 means GOMAXPROCS.
	Parallel int
	// Execute runs one trial. Nil means the default scenario executor
	// (core.NewScenario + Run); tests substitute stubs.
	Execute func(Trial) (*core.Result, error)
	// Checkpoint, if non-nil, persists every completed trial's core.Result
	// keyed by its position and skips (restoring instead) the trials the
	// checkpoint already holds. Restored trials land in the same result
	// slots, so aggregates of a resumed run match an uninterrupted one
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
// in trial order (results[i] belongs to trials[i]).
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
	err := ForEachCheckpointed(ctx, len(trials), opts.Parallel, opts.Checkpoint,
		func(i int, raw json.RawMessage) error {
			var res core.Result
			if err := json.Unmarshal(raw, &res); err != nil {
				return fmt.Errorf("runner: restoring trial %d (%s): %w", i, trials[i].Point, err)
			}
			results[i] = &res
			return nil
		},
		func(i int) (interface{}, error) {
			res, err := execute(trials[i])
			if err != nil {
				return nil, fmt.Errorf("runner: trial %d (%s): %w", i, trials[i].Point, err)
			}
			results[i] = res
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	return results, nil
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

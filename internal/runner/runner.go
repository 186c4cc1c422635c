// Package runner is the Monte-Carlo engine of the reproduction: Map fans
// n seeded tasks across one worker pool and returns their values by
// position. Callers list their own tasks; the package imports nothing
// from the rest of the module.
//
// A task's position in the slice is its only identity: results[i] is
// fn(i)'s value however the workers interleave. Every simulation is
// deterministic given its seed and callers reduce each series in task
// order, so every aggregate is bit-identical at any parallelism
// level — `-parallel 1` and `-parallel 8` produce the same bytes.
//
// Long runs can persist progress through a Checkpoint (checkpoint.go): an
// append-only JSONL file holding one fsynced line per completed task.
// Given one, Map decodes every stored value into its task's slot before
// any work runs, and appends each new value as its task completes, so a
// resumed run produces output bit-identical to an uninterrupted one. A
// partial trailing line (the artifact of a kill mid-append) is detected
// and truncated away; any other malformed content, a fingerprint
// mismatch, or a task-count mismatch is a hard error rather than a
// silent skip.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
)

// Map runs fn(i) for every i in [0, n) on ForEach's pool and returns the
// values in index order: out[i] is fn(i)'s. Like ForEach it cancels the
// remaining indices on the first error and returns the lowest-index error
// unwrapped, or ctx.Err() if ctx was cancelled externally.
//
// With a non-nil ckpt, sized for n tasks, Map first decodes every value
// the checkpoint holds into its slot and skips those tasks, and it
// persists each new value as its task completes. A checkpoint for another
// task count, or a stored value that does not decode into T, fails before
// any task runs.
func Map[T any](ctx context.Context, n, parallel int, ckpt *Checkpoint, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if ckpt != nil {
		if ckpt.Total() != n {
			return nil, fmt.Errorf("runner: checkpoint holds %d tasks, run has %d", ckpt.Total(), n)
		}
		for i := range out {
			if raw, ok := ckpt.Restored(i); ok {
				if err := json.Unmarshal(raw, &out[i]); err != nil {
					return nil, fmt.Errorf("runner: restoring task %d: %w", i, err)
				}
			}
		}
	}
	err := ForEach(ctx, n, parallel, func(i int) error {
		if ckpt != nil {
			if _, ok := ckpt.Restored(i); ok {
				return nil
			}
		}
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		if ckpt == nil {
			return nil
		}
		return ckpt.Complete(i, v)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach runs fn(i) for every i in [0, n) across a pool of parallel
// workers (≤0 means GOMAXPROCS), cancelling the remaining indices on the
// first error. It returns the lowest-index error observed, for
// determinism, or ctx.Err() if ctx was cancelled externally. It is the
// pool under Map, and the scheduling core of callers that keep no value
// per index (the E5 probe populations fill four series at once).
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

package stats

import (
	"errors"
	"math"
)

// ExpectedTrialsToRun returns the expected number of Bernoulli trials (success
// probability p per trial) until the first run of c consecutive successes.
//
// Closed form for the classical "runs" Markov chain:
//
//	E[T] = (1 - p^c) / ((1 - p) * p^c)
//
// This models an attacker that must win c consecutive Chronos rounds (each
// win bounded by the per-round shift cap) to accumulate a target time shift;
// any lost round triggers Chronos' panic/recovery and resets progress.
func ExpectedTrialsToRun(p float64, c int) (float64, error) {
	if c <= 0 {
		return 0, errors.New("stats: run length must be positive")
	}
	if p <= 0 {
		return math.Inf(1), nil
	}
	if p >= 1 {
		return float64(c), nil
	}
	pc := math.Pow(p, float64(c))
	if pc == 0 {
		return math.Inf(1), nil
	}
	return (1 - pc) / ((1 - p) * pc), nil
}

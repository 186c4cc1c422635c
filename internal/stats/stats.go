// Package stats provides the numerical primitives used by the Chronos-NTP
// reproduction: combinatorial probabilities (binomial, hypergeometric)
// evaluated in log space for stability, the runs Markov chain behind the
// closed-form time-to-shift bound, and descriptive summaries with
// confidence intervals. Describe sums a series in slice order; callers
// hand it per-trial values in trial order, so a summary never depends on
// which worker finished first.
//
// All probability routines are exact (no sampling); Monte-Carlo cross-checks
// live in the callers. The Chronos trimmed mean itself lives in
// internal/chronos, which trims by selection rather than sorting.
package stats

import (
	"errors"
	"math"
)

// ErrEmptyInput is returned by estimators that require at least one sample.
var ErrEmptyInput = errors.New("stats: empty input")

// LogChoose returns ln C(n, k). It returns -Inf for k < 0 or k > n so that
// out-of-range terms vanish when exponentiated.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// HypergeomPMF returns P[X = k] where X counts successes in a sample of size
// m drawn without replacement from a population of size n that contains
// good successes.
func HypergeomPMF(n, good, m, k int) float64 {
	if n < 0 || good < 0 || good > n || m < 0 || m > n {
		return 0
	}
	if k < 0 || k > good || m-k > n-good || k > m {
		return 0
	}
	lp := LogChoose(good, k) + LogChoose(n-good, m-k) - LogChoose(n, m)
	return math.Exp(lp)
}

// HypergeomTail returns P[X >= k] for the hypergeometric distribution with
// population n, good successes, and sample size m.
func HypergeomTail(n, good, m, k int) float64 {
	if k <= 0 {
		return 1
	}
	hi := m
	if good < hi {
		hi = good
	}
	if k > hi {
		return 0
	}
	sum := 0.0
	for i := k; i <= hi; i++ {
		sum += HypergeomPMF(n, good, m, i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

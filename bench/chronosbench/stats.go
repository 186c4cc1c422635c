package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is Python's statistics.median: the middle value, or the mean of
// the two middle values. It is NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads read here match the ones an external check
// computes from the same values. With one value both quartiles are that
// value.
func quartiles(xs []float64) (p25, p75 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with its value (nearest-rank). When no candidate
// qualifies — fewer than twenty samples — it returns the maximum as
// percentile 100.
func tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 100, math.NaN()
	}
	for _, p := range tailPercentiles {
		// The epsilon keeps float error in p/100·n from adding a rank.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 100, s[n-1]
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

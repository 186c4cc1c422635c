package stats

import (
	"fmt"
	"math"
)

// Summary is the descriptive aggregate of a metric across Monte-Carlo
// trials: mean, sample standard deviation, the half-width of the normal
// 95% confidence interval of the mean, and the observed extremes.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"` // sample standard deviation (n−1); 0 for a single trial
	CI95   float64 `json:"ci95"`   // 1.96·σ/√n half-width; 0 for a single trial
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// z95 is the two-sided 95% quantile of the standard normal distribution.
const z95 = 1.959963984540054

// Describe computes the Summary of xs in the given order. The summation
// order is exactly the slice order, so identical slices produce
// bit-identical summaries.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmptyInput
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) >= 2 {
		sq := 0.0
		for _, x := range xs {
			d := x - s.Mean
			sq += d * d
		}
		s.StdDev = math.Sqrt(sq / float64(len(xs)-1))
		s.CI95 = z95 * s.StdDev / math.Sqrt(float64(len(xs)))
	}
	return s, nil
}

// String renders "mean ± ci95" at 3 decimals (just the mean for a single
// trial).
func (s Summary) String() string {
	if s.N <= 1 {
		return fmt.Sprintf("%.3f", s.Mean)
	}
	return fmt.Sprintf("%.3f ± %.3f", s.Mean, s.CI95)
}

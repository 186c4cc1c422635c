package stats

import (
	"math"
	"testing"
)

func TestDescribe(t *testing.T) {
	if _, err := Describe(nil); err != ErrEmptyInput {
		t.Fatalf("empty input: err = %v", err)
	}

	one, err := Describe([]float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	if one.N != 1 || one.Mean != 2.5 || one.StdDev != 0 || one.CI95 != 0 || one.Min != 2.5 || one.Max != 2.5 {
		t.Errorf("single sample: %+v", one)
	}
	if got := one.String(); got != "2.500" {
		t.Errorf("single-sample String = %q", got)
	}

	s, err := Describe([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.StdDev, want)
	}
	if want := z95 * s.StdDev / math.Sqrt(8); math.Abs(s.CI95-want) > 1e-12 {
		t.Errorf("ci95 = %v, want %v", s.CI95, want)
	}
}

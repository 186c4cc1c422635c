package eval

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"chronosntp/internal/analysis"
)

// TestShiftStudyDeterministicAcrossParallelism renders E10 at -parallel 1
// and -parallel GOMAXPROCS: identical bytes (trials are independently
// seeded engines reduced by trial index).
func TestShiftStudyDeterministicAcrossParallelism(t *testing.T) {
	seq, err := ShiftStudy(5, 2, 1, 0, 24*time.Hour, "all")
	if err != nil {
		t.Fatal(err)
	}
	par, err := ShiftStudy(5, 2, runtime.GOMAXPROCS(0), 0, 24*time.Hour, "all")
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render() != par.Render() {
		t.Fatalf("E10 table differs across parallelism:\n--- seq ---\n%s\n--- par ---\n%s",
			seq.Render(), par.Render())
	}
}

// withinHorizon reports whether st's expected effort fits inside an
// attack horizon: the closed-form "shifted" predicate.
func withinHorizon(st analysis.ShiftTime, horizon time.Duration) bool {
	return !math.IsInf(st.ExpectedRounds, 1) && st.Expected <= horizon
}

// TestShiftStudyMatchesClosedFormRegimes pins the cross-tabulation's
// agreement for the non-adaptive (greedy) grid against the closed-form
// regime classification (analysis.YearsToShift at the same step): every
// composition whose expected effort fits well inside the horizon must
// shift in every trial, every composition whose expected effort exceeds
// it by an order of magnitude must shift in none, and the §V-capped rows
// always hold. Borderline compositions (expected effort within 10× of
// the horizon either way) are tail events and not asserted.
func TestShiftStudyMatchesClosedFormRegimes(t *testing.T) {
	const horizon = 24 * time.Hour
	res, err := ShiftStudy(7, 3, 0, 0, horizon, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	expect := func(pool, malicious int) string {
		st, err := analysis.YearsToShift(pool, malicious, 15, 5,
			100*time.Millisecond, 25*time.Millisecond, 64*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case withinHorizon(st, horizon/10):
			return "all"
		case !withinHorizon(st, 10*horizon):
			return "none"
		default:
			return "either"
		}
	}
	// Row order mirrors the grid: pools × {off, §V caps}.
	wants := []string{
		expect(133, 33), "none", // §V-capped compositions are all sub-1/3
		expect(133, 44), "none",
		expect(133, 67), "none",
		expect(133, 89), "none",
	}
	if len(tbl.Rows) != len(wants) {
		t.Fatalf("greedy grid has %d rows, want %d", len(tbl.Rows), len(wants))
	}
	for i, row := range tbl.Rows {
		shifted := row[3]
		switch wants[i] {
		case "all":
			if !strings.HasPrefix(shifted, "1.000") {
				t.Errorf("row %v: want every trial shifted, got %q", row, shifted)
			}
		case "none":
			if !strings.HasPrefix(shifted, "0.000") {
				t.Errorf("row %v: want no trial shifted, got %q", row, shifted)
			}
		}
	}
}

// TestShiftStudySweepsDimensions: the full E10 grid carries every
// strategy, both mitigation settings, and the four pool fractions.
func TestShiftStudySweepsDimensions(t *testing.T) {
	res, err := ShiftStudy(1, 1, 0, 0, 12*time.Hour, "all")
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	out := tbl.Render()
	for _, want := range []string{
		"greedy", "stealth", "intermittent", "honest-until-threshold",
		"§V caps", "89/133", "33/133", "> horizon",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E10 table missing %q:\n%s", want, out)
		}
	}
	if len(tbl.Rows) != 4*4*2 {
		t.Fatalf("E10 grid has %d rows, want 32", len(tbl.Rows))
	}
}

// TestShiftStudyRejectsUnknownStrategy: the strategy filter validates up
// front.
func TestShiftStudyRejectsUnknownStrategy(t *testing.T) {
	if _, err := ShiftStudy(1, 1, 0, 0, 0, "sneaky"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

package eval

import (
	"fmt"
	"time"

	"chronosntp/internal/core"
	"chronosntp/internal/stats"
)

// The formatting helpers below render a stats.Summary so that a single
// trial reproduces the exact cell the pre-Monte-Carlo harness printed
// (plain int, "%.3f" fraction, duration string), while multiple trials
// switch to "mean ± 95% CI".

// FormatCount renders an integer-valued metric. Exported so cmd/attacksim
// sweep tables format identically to the eval tables.
func FormatCount(s stats.Summary) string {
	if s.N <= 1 {
		return fmt.Sprintf("%d", int(s.Mean+0.5))
	}
	return fmt.Sprintf("%.1f ± %.1f", s.Mean, s.CI95)
}

// FormatFraction renders a [0,1] fraction.
func FormatFraction(s stats.Summary) string {
	return s.String()
}

// fmtCount and fmtFrac keep the experiment code terse.
func fmtCount(s stats.Summary) string { return FormatCount(s) }
func fmtFrac(s stats.Summary) string  { return FormatFraction(s) }

// fmtDur renders a duration-valued metric observed in nanoseconds.
func fmtDur(s stats.Summary) string {
	if s.N <= 1 {
		return time.Duration(int64(s.Mean)).String()
	}
	ms := s.Mean / float64(time.Millisecond)
	ci := s.CI95 / float64(time.Millisecond)
	return fmt.Sprintf("%.2fms ± %.2fms", ms, ci)
}

// fmtPct renders a percentage-valued metric (observed as 0–100 counts).
func fmtPct(s stats.Summary) string {
	if s.N <= 1 {
		return fmt.Sprintf("%d%%", int(s.Mean+0.5))
	}
	return fmt.Sprintf("%.1f%% ± %.1f%%", s.Mean, s.CI95)
}

// fmtOutOf renders a "k/n" count metric.
func fmtOutOf(s stats.Summary, total int) string {
	if s.N <= 1 {
		return fmt.Sprintf("%d/%d", int(s.Mean+0.5), total)
	}
	return fmt.Sprintf("%.1f/%d ± %.1f", s.Mean, total, s.CI95)
}

// mcNote annotates a multi-trial table with the replication count. (The
// experiments derive their replica seeds in experiment-specific patterns
// from the base seed, so the note does not claim a specific seed range —
// re-running with the same -seed reproduces the run.)
func mcNote(t *Table, trials int) {
	if trials > 1 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("monte-carlo: %d trials per scenario, derived from the base seed; ± values are normal 95%% CIs of the mean",
				trials))
	}
}

// describe is Describe with the empty-input error downgraded to a zero
// summary (experiment code never feeds empty series; this keeps call
// sites linear).
func describe(xs []float64) stats.Summary {
	s, err := stats.Describe(xs)
	if err != nil {
		return stats.Summary{}
	}
	return s
}

// summarize describes one per-trial series of rs, read in trial order.
func summarize(rs []*core.Result, f func(*core.Result) float64) stats.Summary {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return describe(xs)
}

// The per-trial series most tables summarize.
func poolBenign(r *core.Result) float64       { return float64(r.PoolBenign) }
func poolMalicious(r *core.Result) float64    { return float64(r.PoolMalicious) }
func attackerFraction(r *core.Result) float64 { return r.AttackerFraction }

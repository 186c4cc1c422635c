// Package eval contains the experiment harness: one entry point per paper
// artefact (Figure 1 and the §II–§V quantitative claims, E1–E11), each
// returning a typed *Result rather than formatted text.
//
// A Result is Meta (experiment ID, seed, trials, the builder's VCS
// revision) plus a kind-discriminated Payload holding the experiment's
// grid axes and per-cell aggregates (stats.Summary) — never formatted
// strings. The payload's Table(Meta) renderer is the only place numbers
// become text, so the JSON form (Result marshals under the
// ResultSchema envelope, with the payload's kind as discriminator)
// always carries at least as much information as the printed table.
// golden_test.go pins both representations: rendered tables are
// byte-compared against testdata goldens, and every payload, decoded
// back into its own type, must re-render the same bytes.
//
// The E10 shift study additionally exposes a checkpointed variant
// (ShiftStudyCheckpointed) persisting each completed trial through
// runner.Checkpoint; because trials are independently seeded and reduced
// by trial index, a killed-and-resumed run renders bit-identically to an
// uninterrupted one.
//
// Catalog() registers every experiment's claim, invocation and payload
// schema; cmd/genexperiments generates EXPERIMENTS.md from it. The
// cmd/attacksim binary prints the tables (or JSON with -json);
// bench_test.go regenerates them as testing.B benchmarks.
package eval

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row (stringifying the cells).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render lays the table out as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

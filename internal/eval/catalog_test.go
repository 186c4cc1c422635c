package eval

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
)

// TestCatalogCoversAllKinds: every experiment — the golden cases plus
// the closed-form E3 and E4 — has exactly one catalog entry, in ID order,
// each with its own payload kind, so an experiment cannot be added without
// documenting it (EXPERIMENTS.md is generated from this catalog). The
// golden and closed-form tests check each result's kind against its
// entry.
func TestCatalogCoversAllKinds(t *testing.T) {
	experiments := map[string]bool{"E3": true, "E4": true}
	for _, tc := range goldenCases() {
		experiments[tc.name] = true
	}
	entries := Catalog()
	if len(entries) != len(experiments) {
		t.Errorf("catalog has %d entries for %d experiments", len(entries), len(experiments))
	}
	seen := make(map[string]string)
	for i, e := range entries {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("entry %d has ID %s, want %s (catalog must stay in ID order)", i, e.ID, want)
		}
		if !experiments[e.ID] {
			t.Errorf("%s has a catalog entry but no golden or closed-form test", e.ID)
		}
		kind := e.Payload.Kind()
		if prev, dup := seen[kind]; dup {
			t.Errorf("%s and %s share payload kind %q", prev, e.ID, kind)
		}
		seen[kind] = e.ID
		if e.Claim == "" || e.Section == "" || e.Run == "" || len(e.Axes) == 0 {
			t.Errorf("%s catalog entry is missing claim/section/run/axes", e.ID)
		}
	}
}

// TestCatalogZeroPayloadsRenderSafely: the generator renders each
// catalog payload's table, rows empty, for its title and columns — none
// may panic or come back columnless.
func TestCatalogZeroPayloadsRenderSafely(t *testing.T) {
	for _, e := range Catalog() {
		tbl := e.Payload.Table(Meta{ID: e.ID})
		if tbl.Title == "" || len(tbl.Columns) == 0 {
			t.Errorf("%s zero payload renders without title/columns", e.ID)
		}
		if tbl.ID != e.ID {
			t.Errorf("%s table carries ID %q", e.ID, tbl.ID)
		}
	}
}

// TestCatalogTitlesRenderDefaults: a title that reads its payload's
// counts and durations must show the default run's values, which a
// payload left at zero renders as "0 clients" or "0s horizon".
func TestCatalogTitlesRenderDefaults(t *testing.T) {
	sep := func(r rune) bool { return unicode.IsSpace(r) || strings.ContainsRune("/(),", r) }
	for _, e := range Catalog() {
		title := e.Payload.Table(Meta{ID: e.ID}).Title
		for _, field := range strings.FieldsFunc(title, sep) {
			if field == "0" || field == "0s" {
				t.Errorf("%s title %q renders a zero value", e.ID, title)
				break
			}
		}
	}
}

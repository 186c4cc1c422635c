package eval

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
)

// TestCatalogCoversAllKinds: every registered payload kind has exactly one
// catalog entry and vice versa — an experiment cannot be added without
// documenting it (EXPERIMENTS.md is generated from this catalog).
func TestCatalogCoversAllKinds(t *testing.T) {
	entries := Catalog()
	if len(entries) != len(payloadKinds) {
		t.Errorf("catalog has %d entries, payload registry has %d kinds", len(entries), len(payloadKinds))
	}
	seen := make(map[string]string)
	for i, e := range entries {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("entry %d has ID %s, want %s (catalog must stay in ID order)", i, e.ID, want)
		}
		kind := e.Payload.Kind()
		if prev, dup := seen[kind]; dup {
			t.Errorf("%s and %s share payload kind %q", prev, e.ID, kind)
		}
		seen[kind] = e.ID
		if _, ok := payloadKinds[kind]; !ok {
			t.Errorf("%s payload kind %q is not in the unmarshal registry", e.ID, kind)
		}
		if e.Claim == "" || e.Section == "" || e.Run == "" || len(e.Axes) == 0 {
			t.Errorf("%s catalog entry is missing claim/section/run/axes", e.ID)
		}
	}
	for kind := range payloadKinds {
		if _, ok := seen[kind]; !ok {
			t.Errorf("registered payload kind %q has no catalog entry", kind)
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

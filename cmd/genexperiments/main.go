// Command genexperiments generates EXPERIMENTS.md — the catalog of every
// experiment (E1–E11) — from the typed result schemas in internal/eval.
// It is wired to `go generate ./...`; CI regenerates the file and fails
// if the committed copy is stale, so the catalog cannot drift from the
// code.
//
// The generator introspects eval.Catalog(): each entry's payload supplies
// the JSON kind discriminator, the rendered table title and columns, and
// (via reflection over json struct tags) the payload's field-level
// schema. Nothing in EXPERIMENTS.md is hand-maintained.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"chronosntp/internal/eval"
)

func main() {
	out := flag.String("out", "EXPERIMENTS.md", "output path ('-' for stdout)")
	flag.Parse()
	doc := generate(eval.Catalog())
	if *out == "-" {
		fmt.Print(doc)
		return
	}
	if err := os.WriteFile(*out, []byte(doc), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func generate(entries []eval.CatalogEntry) string {
	var b strings.Builder
	b.WriteString(`# Experiment catalog

<!-- Code generated by cmd/genexperiments from internal/eval; DO NOT EDIT.
     Regenerate with: go generate ./...  (CI fails if this file is stale.) -->

Every experiment emits a typed ` + "`eval.Result`" + ` (schema ` + "`" + eval.ResultSchema + "`" + `):
JSON-serializable metadata plus a kind-discriminated payload holding grid
axes and per-cell aggregates. The text tables are rendered *from* the
payload, so the JSON form (` + "`-json`" + `) always carries at least as much
information as the table. Multi-trial runs aggregate by trial index, so
results are bit-identical at any ` + "`-parallel`" + ` level.

`)
	// Index table.
	b.WriteString("| ID | kind | claim |\n|----|------|-------|\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "| [%s](#%s) | `%s` | %s |\n", e.ID, strings.ToLower(e.ID), e.Payload.Kind(), e.Claim)
	}
	b.WriteString("\n")

	for _, e := range entries {
		tbl := e.Payload.Table(eval.Meta{ID: e.ID})
		fmt.Fprintf(&b, "## %s\n\n**%s**\n\n", e.ID, tbl.Title)
		fmt.Fprintf(&b, "Reproduces (%s): %s\n\n", e.Section, e.Claim)
		fmt.Fprintf(&b, "```\n%s\n```\n\n", e.Run)
		fmt.Fprintf(&b, "- payload kind: `%s`\n", e.Payload.Kind())
		fmt.Fprintf(&b, "- table columns: `%s`\n", strings.Join(tbl.Columns, "` | `"))
		fmt.Fprintf(&b, "- axes: %s\n", strings.Join(e.Axes, ", "))
		for _, n := range e.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
		b.WriteString("\nPayload schema:\n\n")
		writeSchema(&b, reflect.TypeOf(e.Payload).Elem(), 0, map[reflect.Type]bool{})
		b.WriteString("\n")
	}
	return b.String()
}

var durationType = reflect.TypeOf(time.Duration(0))

// typeLabel names a field type for the schema listing.
func typeLabel(t reflect.Type) string {
	switch {
	case t == durationType:
		return "duration (ns)"
	case t.Kind() == reflect.Slice:
		return "[]" + typeLabel(t.Elem())
	case t.PkgPath() != "":
		// Named types: stats.Summary, eval.Float, nested row structs.
		parts := strings.Split(t.PkgPath(), "/")
		return parts[len(parts)-1] + "." + t.Name()
	default:
		return t.Kind().String()
	}
}

// writeSchema lists a payload struct's JSON fields as nested bullets,
// expanding row structs defined in internal/eval one level deep.
func writeSchema(b *strings.Builder, t reflect.Type, depth int, seen map[reflect.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	indent := strings.Repeat("  ", depth)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "" {
			tag = f.Name
		}
		fmt.Fprintf(b, "%s- `%s` — %s\n", indent, tag, typeLabel(f.Type))
		// Expand eval-local struct element types (grid rows) one level.
		elem := f.Type
		if elem.Kind() == reflect.Slice {
			elem = elem.Elem()
		}
		if elem.Kind() == reflect.Struct && strings.HasSuffix(elem.PkgPath(), "internal/eval") {
			writeSchema(b, elem, depth+1, seen)
		}
	}
}

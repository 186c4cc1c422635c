package eval

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases are the deterministic scenario-backed tables: trials=1 at
// seed 1 reproduces the paper's single-seed numbers, so the rendered
// bytes are frozen as goldens. (E3/E4 are closed-form and covered by
// unit tests.) E9 runs a reduced 600-client/6-resolver population and
// E10 a one-day horizon to keep the golden regeneration fast; both stay
// deterministic at any parallelism, so the frozen bytes are stable.
func goldenCases() []struct {
	name string
	fn   func() (*Result, error)
} {
	return []struct {
		name string
		fn   func() (*Result, error)
	}{
		{"E1", func() (*Result, error) { return Figure1(1, 1, 1) }},
		{"E2", func() (*Result, error) { return AttackWindow(1, 1, 1) }},
		{"E5", func() (*Result, error) { return FragmentationStudy(1, 1, 1) }},
		{"E6", func() (*Result, error) { return TimeShift(1, 1, 1) }},
		{"E7", func() (*Result, error) { return Mitigations(1, 1, 1) }},
		{"E8", func() (*Result, error) { return Ablations(1, 1, 1) }},
		{"E9", func() (*Result, error) { return FleetStudy(1, 1, 1, 600, 6) }},
		{"E10", func() (*Result, error) { return ShiftStudy(1, 1, 1, 0, 24*time.Hour, "all") }},
		{"E11", func() (*Result, error) { return AuthStudy(1, 1, 1, 0, 12*time.Hour, "all", 0) }},
	}
}

// TestGoldenTables byte-compares every experiment's trials=1 rendering
// against its committed golden (see assertGolden). Run with -update to
// regenerate after an intentional change:
//
//	go test ./internal/eval -run Golden -update
func TestGoldenTables(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := tc.fn()
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, tc.name, res)
		})
	}
}

// TestGoldenMonteCarlo freezes the trials=3 renderings of the experiments
// whose scenario trials run through runScenarios (runner.Map over
// core.Run), where the order in which each series is summed shows in the
// CI digits. Each is rendered at parallel 1
// and 4 against the same file.
func TestGoldenMonteCarlo(t *testing.T) {
	cases := []struct {
		name string
		fn   func(seed int64, trials, parallel int) (*Result, error)
	}{
		{"E1", Figure1}, {"E2", AttackWindow}, {"E6", TimeShift}, {"E7", Mitigations}, {"E8", Ablations},
	}
	for _, tc := range cases {
		for _, parallel := range []int{1, 4} {
			tc, parallel := tc, parallel
			t.Run(fmt.Sprintf("%s/parallel=%d", tc.name, parallel), func(t *testing.T) {
				t.Parallel()
				res, err := tc.fn(1, 3, parallel)
				if err != nil {
					t.Fatal(err)
				}
				assertGolden(t, tc.name+"-trials3", res)
			})
		}
	}
}

// assertGolden byte-compares res's rendering against testdata/name.golden
// (rewriting it under -update), then decodes res's JSON back into a
// payload of its own type and asserts the re-rendered table still matches
// the same bytes — so the serialized payload provably carries everything
// the table needs.
func assertGolden(t *testing.T, name string, res *Result) {
	t.Helper()
	got := []byte(res.Render())
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if string(want) != string(got) {
		t.Fatalf("%s rendering drifted from golden %s.\n--- want ---\n%s\n--- got ---\n%s",
			name, path, want, got)
	}
	if rerendered := jsonRoundTrip(t, res).Render(); rerendered != string(want) {
		t.Fatalf("%s table re-rendered from JSON differs from golden.\n--- want ---\n%s\n--- got ---\n%s",
			name, want, rerendered)
	}
}

// jsonRoundTrip marshals res and decodes the envelope back, its payload
// into a fresh value of res's own payload type. It fails unless the
// envelope carries the schema, res's meta, and the kind of res's catalog
// entry.
func jsonRoundTrip(t *testing.T, res *Result) *Result {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s marshal: %v", res.Meta.ID, err)
	}
	var env resultJSON
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatalf("%s unmarshal: %v", res.Meta.ID, err)
	}
	kind := ""
	for _, e := range Catalog() {
		if e.ID == res.Meta.ID {
			kind = e.Payload.Kind()
		}
	}
	if env.Schema != ResultSchema || env.Kind != kind || env.Meta != res.Meta {
		t.Fatalf("%s envelope %q/%q/%+v, want %q/%q (its catalog entry's kind)/%+v",
			res.Meta.ID, env.Schema, env.Kind, env.Meta, ResultSchema, kind, res.Meta)
	}
	payload := reflect.New(reflect.TypeOf(res.Payload).Elem()).Interface().(Payload)
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		t.Fatalf("%s payload: %v", res.Meta.ID, err)
	}
	return &Result{Meta: env.Meta, Payload: payload}
}

// UnmarshalJSON implements json.Unmarshaler, so jsonRoundTrip reads
// E4's "+Inf" years back. No program decodes a payload, so the method
// lives with its one caller.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("eval: non-finite float %q: %w", s, err)
		}
		*f = Float(v)
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// TestResultJSONClosedForm round-trips the closed-form experiments (E3,
// E4) that have no golden files; E4's payload carries the +Inf years the
// eval.Float type must survive.
func TestResultJSONClosedForm(t *testing.T) {
	for _, fn := range []func() (*Result, error){MaxAddresses, ChronosSecurity} {
		res, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		if jsonRoundTrip(t, res).Render() != res.Render() {
			t.Fatalf("%s re-rendered table differs after JSON round-trip", res.Meta.ID)
		}
	}
}

// TestResultJSONRejectsMissingPayload: a result without a payload has
// no kind to store, so it does not marshal.
func TestResultJSONRejectsMissingPayload(t *testing.T) {
	if _, err := json.Marshal(&Result{Meta: Meta{ID: "EX"}}); err == nil {
		t.Error("payload-less result marshalled")
	}
}

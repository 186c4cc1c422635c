package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"chronosntp/internal/eval"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs               []float64
		median, p25, p75 float64
	}{
		// statistics.median and statistics.quantiles(xs, n=4).
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1}, 2, 0.5, 3.5},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
	}
	for _, c := range cases {
		p25, p75 := quartiles(c.xs)
		if m := median(c.xs); m != c.median || p25 != c.p25 || p75 != c.p75 {
			t.Errorf("%v: median %v p25 %v p75 %v, want %v %v %v", c.xs, m, p25, p75, c.median, c.p25, c.p75)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n          int
		pct, value float64
	}{
		{1000, 99, 990},
		{10000, 99.9, 9990},
		{200, 95, 190},
		{20, 50, 10},
		{15, 100, 15}, // no percentile has ten samples beyond it: the maximum
	}
	for _, c := range cases {
		if pct, v := tail(seq(c.n)); pct != c.pct || v != c.value {
			t.Errorf("n=%d: tail p%v = %v, want p%v = %v", c.n, pct, v, c.pct, c.value)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 2, Start: 12, End: 15},  // grandchild: not root's child
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	setSelfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 3, 30, 3, 30}
	for i, sp := range spans {
		if sp.Self != want[i] {
			t.Errorf("span %d self %d, want %d", sp.ID, sp.Self, want[i])
		}
	}
}

func TestRepeatScalesToReferenceSpeed(t *testing.T) {
	s := newSession(1, time.Nanosecond, nil)
	calls := 0
	err := s.repeat(func() error {
		calls++
		s.rate(1000)
		s.latency(time.Second)
		return nil
	})
	if err != nil || calls != 1 || len(s.refs) != 1 {
		t.Fatalf("err %v, %d calls, %d reference times; want one call past the budget", err, calls, len(s.refs))
	}
	f := float64(refNominal) / float64(s.refs[0])
	if got, want := s.rates[0], 1000/f; math.Abs(got-want) > 1e-9*want {
		t.Errorf("rate %v, want %v", got, want)
	}
	if got, want := float64(s.lat[0]), float64(time.Second)*f; math.Abs(got-want) > 1 {
		t.Errorf("latency %v, want %v", got, want)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if got := tr.spans[1].Parent; got != tr.spans[0].ID {
		t.Fatalf("inner parent %d, want %d", got, tr.spans[0].ID)
	}
	var none *tracer
	none.end(none.begin("untraced")) // a nil tracer records nothing
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics()...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q unit %q is malformed", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload %q is malformed", w.name)
		}
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name+" "+d.unit)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONMatchesDriver holds BENCHMARK.json's workloads and
// metrics to the ones the driver runs and emits, in both directions.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if got, want := strings.Join(names(e2e), ","), strings.Join(names(endToEndMetrics), ","); got != want {
		t.Errorf("end_to_end\n got %s\nwant %s", got, want)
	}
	if got, want := strings.Join(names(layer), ","), strings.Join(names(perLayerMetrics()), ","); got != want {
		t.Errorf("per_layer\n got %s\nwant %s", got, want)
	}
	var specWorkloads, driverWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		driverWorkloads = append(driverWorkloads, w.name)
	}
	if got, want := strings.Join(specWorkloads, ","), strings.Join(driverWorkloads, ","); got != want {
		t.Errorf("workloads %s, driver runs %s", got, want)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{98, 99, 100, 101, 102}
	cases := []struct {
		name         string
		parent       []float64
		change       []float64
		higherBetter bool
		want         string
	}{
		{"same runs", parent, parent, true, noWorse},
		{"within the bound", parent, []float64{93, 94, 95, 96, 97}, true, noWorse},
		{"past the bound", parent, []float64{80, 81, 82, 83, 84}, true, worse},
		{"past the bound, lower is better", parent, []float64{120, 121, 122, 123, 124}, false, worse},
		{"beyond the parent's spread", parent, []float64{104, 105, 106, 107, 108}, true, better},
		{"noisy parent", []float64{60, 80, 100, 120, 140}, []float64{100}, true, unresolved},
		{"noisy parent, every change run better", []float64{60, 80, 100, 120, 140}, []float64{150, 160}, true, better},
	}
	for _, c := range cases {
		if got := verdict(c.parent, c.change, 0.1, c.higherBetter); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFoldTraces(t *testing.T) {
	text := `File: chronosbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   chronosntp/internal/chronos.Rule.Evaluate
             chronosntp/internal/shiftsim.(*engine).run
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
-----------+-------------------------------------------------------
      20ms   internal/runtime/syscall.Syscall6
             syscall.Syscall6
-----------+-------------------------------------------------------
      20ms   runtime.memmove (inline)
             chronosntp/internal/simnet.(*Network).Step
-----------+-------------------------------------------------------
      20ms   math/rand.(*Rand).Int63
             chronosntp/internal/chronos.Rule.SampleIndices
-----------+-------------------------------------------------------
      10ms   crypto/sha256.block
             main.probeMACVerify
-----------+-------------------------------------------------------
`
	shares, err := foldTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"chronos": 5.0 / 11, "runtime_gc": 1.0 / 11, "syscall": 2.0 / 11, "runtime": 2.0 / 11, "other": 1.0 / 11}
	sum := 0.0
	for _, l := range cpuLayers {
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s share %v, want %v", l, shares[l], want[l])
		}
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

// smokeSession runs one workload iteration: a session whose budget has
// run out by the time it is checked still performs its first operation.
func smokeSession(t *testing.T, name string, run func(*session) error) {
	t.Helper()
	s := newSession(2, time.Nanosecond, nil)
	if err := run(s); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if s.failed != 0 || s.attempted == 0 || len(s.setups) == 0 || len(s.rates) == 0 || len(s.lat) == 0 {
		t.Fatalf("%s: %d of %d checks failed, %d set-ups, %d rates, %d latencies",
			name, s.failed, s.attempted, len(s.setups), len(s.rates), len(s.lat))
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	smokeSession(t, "fleet", func(s *session) error { return runFleet(s, fleetParams{clients: 2000, resolvers: 8}) })
	smokeSession(t, "shift", func(s *session) error { return runShift(s, shiftParams{rounds: 2000, startRounds: 100}) })
	smokeSession(t, "repro", func(s *session) error {
		return runRepro(s, reproParams{trials: 1, clients: 200, resolvers: 4})
	})
	small := wireParams{pipeline: 50 * time.Millisecond, exchanges: 20}
	smokeSession(t, "wire", func(s *session) error { return runWire(s, small, false) })
	smokeSession(t, "wire-auth", func(s *session) error { return runWire(s, small, true) })
}

// TestReproStepsMatchEvalAll keeps the traced run's step list, which
// calls eval.All's steps one at a time, in step with eval.All.
func TestReproStepsMatchEvalAll(t *testing.T) {
	p := reproParams{trials: 1, clients: 200, resolvers: 4}
	all, err := eval.All(3, p.trials, 2, p.clients, p.resolvers)
	if err != nil {
		t.Fatal(err)
	}
	var steps []*eval.Result
	for _, step := range reproSteps(3, p.trials, 2, p) {
		r, err := step()
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, r)
	}
	if got, want := renderSHA256(steps), renderSHA256(all); got != want {
		t.Fatalf("steps render %s, eval.All %s", got, want)
	}
}

// TestRunEmitsDeclaredMetrics runs the command on the lightest workload,
// untraced and traced, and holds the JSON it prints to the declared
// metric sets.
func TestRunEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the wire workload twice")
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // the traced run writes under .bench_build
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEndMetrics}, {"1", perLayerMetrics()}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "wire", "--seed", "5", "--seconds", "1", "--trace", c.trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", c.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 {
			t.Errorf("trace %s: result keys %v", c.trace, res)
		}
		var got runResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		var emitted []metricDef
		for k, v := range got.Metrics {
			emitted = append(emitted, metricDef{k, v.Unit})
		}
		if g, w := strings.Join(names(emitted), ","), strings.Join(names(c.defs), ","); g != w {
			t.Errorf("trace %s emitted\n %s\nwant\n %s", c.trace, g, w)
		}
		if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
			t.Errorf("trace %s: correct %v, %d of %d failed", c.trace, got.Correct, got.Failed, got.Attempted)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, buildDir, "trace-wire.json")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

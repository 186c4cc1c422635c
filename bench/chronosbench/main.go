// Command chronosbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks every output, prints one row per
// metric and, as its last line, a JSON object:
//
//	chronosbench -workload fleet -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the object holds the end-to-end metrics. With -trace 1
// the run repeats the workload traced — spans around every public call it
// makes, a CPU profile — then runs the layer probes, and the object holds
// the per-layer metrics; the spans go to -trace-file.
//
// Two more modes work on sets of runs, from the repository root:
//
//	chronosbench -workload all -runs 10 -seed 1 -out bench/results/<label>.json
//	chronosbench -diff parent.json change.json
//
// The first runs every workload of BENCHMARK.json -runs times in child
// processes and writes every run's metrics; the second compares two such
// files against the bounds in BENCHMARK.json. bench/chronosbench/run.sh
// builds the command from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// buildDir holds what a run leaves behind: CPU profiles and span files.
const buildDir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of each workload waits on.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

var probeMetrics = []metricDef{
	{"simnet.event_ns", "ns"},
	{"simnet.event_allocs", "count"},
	{"simnet.send_deliver_ns", "ns"},
	{"simnet.fastforward_ns", "ns"},
	{"chronos.sample_evaluate_ns", "ns"},
	{"chronos.build_pool_us", "us"},
	{"dnsresolver.cache_hit_ns", "ns"},
	{"dnsresolver.cache_hit_allocs", "count"},
	{"dnsresolver.cache_put_ns", "ns"},
	{"dnsserver.poolzone_respond_ns", "ns"},
	{"dnswire.forged89_roundtrip_ns", "ns"},
	{"dnswire.pool4_roundtrip_ns", "ns"},
	{"dnswire.allocs_per_roundtrip", "count"},
	{"ipfrag.split_reassemble_ns", "ns"},
	{"ipfrag.allocs_per_datagram", "count"},
	{"core.scenario_ms", "ms"},
	{"ntpwire.roundtrip_ns", "ns"},
	{"ntpwire.allocs", "count"},
	{"ntpserver.serve_plain_ns", "ns"},
	{"ntpserver.serve_mac_sha256_ns", "ns"},
	{"ntpauth.mac_sha256_verify_ns", "ns"},
	{"ntpauth.mac_md5_verify_ns", "ns"},
}

var workloadMetrics = []metricDef{
	{"workload.gc_cpu_frac", "fraction"},
	{"workload.cpu_util", "fraction"},
	{"workload.allocs_per_unit", "count"},
	{"workload.heap_live_mb", "MB"},
	{"workload.op_tail_ms", "ms"},
	{"workload.op_tail_pct", "pct"},
	{"workload.op_samples", "count"},
	{"workload.tracing_overhead", "fraction"},
	{"workload.ref_ms", "ms"},
}

// perLayerMetrics are the traced run's metrics: layer probes, the
// workload's own counters, and each layer's CPU share.
func perLayerMetrics() []metricDef {
	out := append(append([]metricDef(nil), probeMetrics...), workloadMetrics...)
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".cpu_share", "fraction"})
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chronosbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all for a set of runs of every workload")
	seed := fs.Int64("seed", 1, "input seed (a set uses seed, seed+1, ...)")
	seconds := fs.Int("seconds", 15, "seconds one run measures")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	traceFile := fs.String("trace-file", "", "span file of a traced run (default "+buildDir+"/trace-<workload>.json)")
	runs := fs.Int("runs", 10, "set: runs per workload")
	out := fs.String("out", "", "set: results file")
	diff := fs.Bool("diff", false, "compare two results files: -diff parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "chronosbench:", err)
		return 1
	}
	switch {
	case *diff:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-diff takes two results files"))
		}
		worse, err := diffResults(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *name == "all":
		if *out == "" || *runs < 1 {
			return fail(fmt.Errorf("a set needs -out and -runs >= 1"))
		}
		ok, err := runSet(*runs, *seed, *out, stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, found := findWorkload(*name)
	if !found {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1"))
	}
	if *traceFile == "" {
		*traceFile = filepath.Join(buildDir, "trace-"+w.name+".json")
	}
	budget := time.Duration(*seconds) * time.Second
	var res runResult
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, budget, *traceFile, stdout)
	} else {
		res, err = runUntraced(w, *seed, budget, stdout)
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func runUntraced(w workload, seed int64, budget time.Duration, stdout io.Writer) (runResult, error) {
	s := newSession(seed, budget, nil)
	if err := w.run(s); err != nil {
		return runResult{}, err
	}
	setups := make([]float64, len(s.setups))
	for i, d := range s.setups {
		setups[i] = d.Seconds()
	}
	samples := map[string][]float64{
		"setup_s":          setups,
		"peak_rss_mb":      s.rss,
		"throughput_per_s": s.rates,
		"op_p50_ms":        millis(s.lat),
	}
	res := newResult(s.attempted, s.failed)
	for _, m := range endToEndMetrics {
		xs := samples[m.name]
		if len(xs) == 0 {
			return runResult{}, fmt.Errorf("no %s sample", m.name)
		}
		res.Metrics[m.name] = metricValue{median(xs), m.unit}
		printRow(stdout, w.name, m, xs)
	}
	// Not a metric: the machine's speed, to turn the times back into wall
	// times.
	printRow(stdout, w.name, metricDef{"ref_ms", "ms"}, millis(s.refs))
	return res, nil
}

// runTraced runs the workload untraced for half the budget, as a baseline
// for the tracing overhead, then traced under a CPU profile for the other
// half, then the layer probes.
func runTraced(w workload, seed int64, budget time.Duration, traceFile string, stdout io.Writer) (runResult, error) {
	base := newSession(seed, budget/2, nil)
	if err := w.run(base); err != nil {
		return runResult{}, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return runResult{}, err
	}
	profPath := filepath.Join(buildDir, "cpu-"+w.name+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return runResult{}, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return runResult{}, err
	}
	tr := newTracer()
	s := newSession(seed, budget/2, tr)
	err = s.span(w.name, func() error { return w.run(s) })
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return runResult{}, err
	}
	values, err := runProbes(s)
	if err != nil {
		return runResult{}, err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return runResult{}, err
	}
	for l, v := range shares {
		values[l+".cpu_share"] = v
	}
	a := s.acc
	lat := millis(s.lat)
	overhead := median(lat)/median(millis(base.lat)) - 1
	values["workload.gc_cpu_frac"] = ratio(a.gcCPU, a.usedCPU)
	values["workload.cpu_util"] = ratio(a.procCPU.Seconds(), a.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	values["workload.allocs_per_unit"] = ratio(float64(a.allocs), a.units)
	values["workload.heap_live_mb"] = float64(a.peakLive) / (1 << 20)
	values["workload.op_tail_pct"], values["workload.op_tail_ms"] = tail(lat)
	values["workload.op_samples"] = float64(len(lat))
	values["workload.tracing_overhead"] = overhead
	values["workload.ref_ms"] = median(millis(s.refs))

	res := newResult(base.attempted+s.attempted, base.failed+s.failed)
	for _, m := range perLayerMetrics() {
		v, ok := values[m.name]
		if !ok {
			return runResult{}, fmt.Errorf("no %s value", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
		printRow(stdout, w.name, m, []float64{v})
	}
	setSelfTimes(tr.spans)
	err = writeJSON(traceFile, traceDoc{
		Workload: w.name, Seed: seed,
		UntracedOpP50Ms: median(millis(base.lat)), TracedOpP50Ms: median(lat), TracingOverhead: overhead,
		CPUShare: shares, Spans: tr.spans,
	})
	return res, err
}

// traceDoc is the span file of a traced run.
type traceDoc struct {
	Workload        string             `json:"workload"`
	Seed            int64              `json:"seed"`
	UntracedOpP50Ms float64            `json:"untraced_op_p50_ms"`
	TracedOpP50Ms   float64            `json:"traced_op_p50_ms"`
	TracingOverhead float64            `json:"tracing_overhead"`
	CPUShare        map[string]float64 `json:"cpu_share"`
	Spans           []span             `json:"spans"`
}

func newResult(attempted, failed int64) runResult {
	return runResult{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printRow prints `workload metric median unit p25 p75 n`.
func printRow(w io.Writer, workload string, m metricDef, xs []float64) {
	p25, p75 := quartiles(xs)
	fmt.Fprintf(w, "%s %s %.6g %s %.6g %.6g %d\n", workload, m.name, median(xs), m.unit, p25, p75, len(xs))
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

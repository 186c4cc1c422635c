package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// specFile is the benchmark's definition, read from the repository root.
const specFile = "BENCHMARK.json"

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runRecord is one run of a set: its flags and its result.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	runResult
}

// resultsFile holds every run of a set.
type resultsFile struct {
	Seconds int         `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runSet runs each workload runs times untraced, with seeds seed,
// seed+1, …, then once traced. Each run is a child process, so peak RSS
// and GC state belong to one workload. It writes every run to out and the
// traced runs' spans to trace-<name of out> beside it.
func runSet(runs int, seed int64, out string, stdout io.Writer) (bool, error) {
	spec, err := loadSpec(specFile)
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := resultsFile{Seconds: spec.RunSeconds}
	allOK := true
	record := func(name string, seed int64, traced bool, traceFile string) error {
		res, err := runChild(exe, name, seed, spec.RunSeconds, traced, traceFile)
		if err != nil {
			return err
		}
		allOK = allOK && res.Correct
		set.Runs = append(set.Runs, runRecord{Workload: name, Seed: seed, Trace: traced, runResult: res})
		return nil
	}
	traces := map[string]json.RawMessage{}
	for _, w := range spec.Workloads {
		for i := 0; i < runs; i++ {
			if err := record(w.Name, seed+int64(i), false, ""); err != nil {
				return false, err
			}
		}
		tf := filepath.Join(buildDir, "trace-"+w.Name+".json")
		if err := record(w.Name, seed, true, tf); err != nil {
			return false, err
		}
		b, err := os.ReadFile(tf)
		if err != nil {
			return false, err
		}
		traces[w.Name] = b
	}
	if err := writeJSON(out, set); err != nil {
		return false, err
	}
	if err := writeJSON(filepath.Join(filepath.Dir(out), "trace-"+filepath.Base(out)), traces); err != nil {
		return false, err
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics()
			}
			for _, m := range defs {
				printRow(stdout, w.Name, m, set.values(w.Name, m.name, traced))
			}
		}
	}
	return allOK, nil
}

// runChild runs one workload in a child process and parses the result
// from its last output line. A run whose checks failed still returns its
// result, with Correct false.
func runChild(exe, name string, seed int64, seconds int, traced bool, traceFile string) (runResult, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		args = append(args, "-trace-file", traceFile)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
		}
		return res, fmt.Errorf("%s seed %d: no result line: %w", name, seed, err)
	}
	return res, nil
}

// values collects one metric of one workload across a set's runs.
func (f *resultsFile) values(workload, metric string, traced bool) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Verdicts of a comparison.
const (
	better     = "better"
	noWorse    = "no-worse"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares a change's runs of one metric against its parent's.
// The change is worse when its median is worse than the parent's by more
// than bound, a share of the parent's median. The comparison is
// unresolved when the parent's own spread (p75 − p25) exceeds the bound,
// unless every change run beats every parent run. It is better when the
// change's median beats the parent's by more than that spread.
func verdict(parent, change []float64, bound float64, higherIsBetter bool) string {
	pm, cm := median(parent), median(change)
	p25, p75 := quartiles(parent)
	gain := cm - pm // positive is better
	if !higherIsBetter {
		gain = -gain
	}
	beatsAll := true
	for _, c := range change {
		for _, p := range parent {
			if (higherIsBetter && c <= p) || (!higherIsBetter && c >= p) {
				beatsAll = false
			}
		}
	}
	switch {
	case beatsAll && gain > 0:
		return better
	case (p75-p25)/math.Abs(pm) > bound:
		return unresolved
	case -gain > bound*math.Abs(pm):
		return worse
	case gain > p75-p25:
		return better
	}
	return noWorse
}

// diffResults prints one row per workload and end-to-end metric of
// BENCHMARK.json and reports whether any is worse. Failed runs on the
// change side count as worse.
func diffResults(parentPath, changePath string, stdout io.Writer) (bool, error) {
	spec, err := loadSpec(specFile)
	if err != nil {
		return false, err
	}
	parent, err := loadResults(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "workload metric unit parent_median parent_p25 parent_p75 change_median change_p25 change_p75 bound verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p := parent.values(w.Name, m.Name, false)
			c := change.values(w.Name, m.Name, false)
			if len(p) == 0 || len(c) == 0 {
				return false, fmt.Errorf("%s %s: %d parent and %d change runs", w.Name, m.Name, len(p), len(c))
			}
			v := verdict(p, c, m.Bound, m.Better == "higher")
			anyWorse = anyWorse || v == worse
			p25, p75 := quartiles(p)
			c25, c75 := quartiles(c)
			fmt.Fprintf(&buf, "%s %s %s %.6g %.6g %.6g %.6g %.6g %.6g %.2f %s\n",
				w.Name, m.Name, m.Unit, median(p), p25, p75, median(c), c25, c75, m.Bound, v)
		}
	}
	for _, side := range []struct {
		name string
		f    *resultsFile
	}{{"parent", parent}, {"change", change}} {
		var attempted, failed int64
		for _, r := range side.f.Runs {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(&buf, "%s: %d runs, %d of %d checked outputs failed\n", side.name, len(side.f.Runs), failed, attempted)
		if side.name == "change" && failed > 0 {
			anyWorse = true
		}
	}
	_, err = stdout.Write(buf.Bytes())
	return anyWorse, err
}

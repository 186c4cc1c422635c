package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// internalPackages are the repository's layers, the packages under
// internal/.
var internalPackages = []string{
	"analysis", "attack", "chronos", "clock", "core", "dnsresolver", "dnsserver",
	"dnswire", "eval", "fleet", "ipfrag", "mitigation", "ntpauth", "ntpclient",
	"ntpserver", "ntpwire", "runner", "shiftsim", "simnet", "stats", "wirenet",
}

// cpuLayers are the buckets of the <layer>.cpu_share metrics: every
// internal package, garbage collection, the rest of the runtime, system
// calls, and other: stacks with no internal frame, such as the
// benchmark's own code.
var cpuLayers = append(append([]string(nil), internalPackages...), "runtime_gc", "runtime", "syscall", "other")

// gcFrames mark a stack as garbage-collector work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.gcMarkTermination",
}

// cpuShares folds a CPU profile into each layer's share of the profiled
// CPU time, using the stacks `go tool pprof -traces` prints.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return foldTraces(out)
}

// foldTraces parses `pprof -traces` text. After a header, each sample is
// a separator line, then a value and the leaf function on one line, then
// the callers one per line:
//
//	-----------+-------------------------------------------------------
//	     10ms   runtime.scanobject
//	            runtime.gcDrain
//
// Each stack's value counts toward the layer classify names.
func foldTraces(text []byte) (map[string]float64, error) {
	totals := map[string]float64{}
	var sum, value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			totals[classify(stack)] += value
			sum += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		// A frame is a function name, possibly followed by "(inline)".
		fields := strings.Fields(line)
		if len(stack) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := parseProfileValue(fields[0])
			if err != nil {
				return nil, err
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = ratio(totals[l], sum)
	}
	return shares, nil
}

// parseProfileValue reads a pprof duration such as "10ms" or "1.20s" as
// nanoseconds.
func parseProfileValue(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: value %q: %w", s, err)
	}
	return float64(d), nil
}

// classify names the layer a stack (leaf first) is charged to: the
// collector if any frame is, system calls and the runtime by the leaf,
// and otherwise the innermost internal package on the stack, so that
// standard-library work (math/rand under chronos.Rule.SampleIndices,
// crypto under ntpauth) counts toward the layer that asked for it.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g || strings.HasPrefix(fn, g+".") {
				return "runtime_gc"
			}
		}
	}
	switch leaf := stack[0]; {
	case strings.HasPrefix(leaf, "syscall."), strings.HasPrefix(leaf, "internal/runtime/syscall."):
		return "syscall"
	case strings.HasPrefix(leaf, "runtime."):
		return "runtime"
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "chronosntp/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			for _, p := range internalPackages {
				if rest == p {
					return p
				}
			}
		}
	}
	return "other"
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// session is one workload run. A workload wraps its set-up in setup and
// each timed operation in measure, reports throughput and latency
// samples with rate and latency, and passes every output through check.
// It runs its repeated part through repeat; the time budget starts there,
// after any warm-up.
type session struct {
	seed   int64
	budget time.Duration
	tr     *tracer // nil when the run is untraced
	ref    *reference

	setups []time.Duration
	rates  []float64       // throughput samples, work units per second
	lat    []time.Duration // latency samples behind op_p50_ms
	refs   []time.Duration // reference loop time around each repeat
	rss    []float64       // peak RSS of each repeat, MB

	attempted, failed int64

	acc regionTotals // counters summed over measured regions
}

func newSession(seed int64, budget time.Duration, tr *tracer) *session {
	return &session{seed: seed, budget: budget, tr: tr, ref: newReference()}
}

// repeat runs fn until the time budget has passed, and at least once.
// Each call adds a peak RSS sample, the process's peak during the call.
// Each call also runs between two timings of the reference loop, and the
// set-up, throughput and latency samples it records are scaled to
// reference speed: a time is multiplied by refNominal over the mean of
// the two reference times.
func (s *session) repeat(fn func() error) error {
	start := time.Now()
	for first := true; first || time.Since(start) < s.budget; first = false {
		setups, rates, lats := len(s.setups), len(s.rates), len(s.lat)
		if err := resetPeakRSS(); err != nil {
			return err
		}
		before := s.ref.time()
		if err := fn(); err != nil {
			return err
		}
		ref := (before + s.ref.time()) / 2
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		s.rss = append(s.rss, rss)
		s.refs = append(s.refs, ref)
		f := float64(refNominal) / float64(ref)
		for i := setups; i < len(s.setups); i++ {
			s.setups[i] = time.Duration(float64(s.setups[i]) * f)
		}
		for i := rates; i < len(s.rates); i++ {
			s.rates[i] /= f
		}
		for i := lats; i < len(s.lat); i++ {
			s.lat[i] = time.Duration(float64(s.lat[i]) * f)
		}
	}
	return nil
}

// refNominal is the reference loop's time on the machine the reported
// times are scaled to: about its time on the 2-vCPU guest the bounds were
// set on.
const refNominal = 10 * time.Millisecond

// reference is the loop that measures the machine's speed: it sorts a
// fixed permutation of 32k ints three times. It uses the standard library
// alone, so no change to the repository moves it, and it allocates
// nothing.
//
// The speed of a shared machine drifts: on the guest the bounds were set
// on, fleet and shift run 20–30% slower for minutes at a time, and this
// loop slows with them, so their times scaled by it spread a third to a
// half as much from one 15 s window to the next as raw wall times do.
type reference struct{ src, dst []int }

func newReference() *reference {
	src := rand.New(rand.NewSource(1)).Perm(1 << 15)
	return &reference{src: src, dst: make([]int, len(src))}
}

func (r *reference) time() time.Duration {
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		copy(r.dst, r.src)
		sort.Ints(r.dst)
	}
	return time.Since(t0)
}

// warmUp runs fn once before the budget starts: its operations fill
// caches and grow the heap, and its checks count, but the samples and
// counters it records are dropped.
func (s *session) warmUp(fn func() error) error {
	setups, rates, lats, acc := len(s.setups), len(s.rates), len(s.lat), s.acc
	err := s.span("warm-up", fn)
	s.setups, s.rates, s.lat, s.acc = s.setups[:setups], s.rates[:rates], s.lat[:lats], acc
	return err
}

// setup times fn as one set-up sample.
func (s *session) setup(name string, fn func() error) error {
	t0 := time.Now()
	if err := s.span(name, fn); err != nil {
		return err
	}
	s.setups = append(s.setups, time.Since(t0))
	return nil
}

// measure times fn as one measured operation. fn returns how many work
// units it completed; its CPU, GC CPU and heap allocations count toward
// the per-layer totals.
func (s *session) measure(name string, fn func() (units float64, err error)) (time.Duration, error) {
	before := readCounters()
	var units float64
	t0 := time.Now()
	err := s.span(name, func() (err error) {
		units, err = fn()
		return err
	})
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	s.acc.add(before, readCounters(), d, units)
	return d, nil
}

// rate records one throughput sample.
func (s *session) rate(unitsPerSecond float64) { s.rates = append(s.rates, unitsPerSecond) }

// latency records one latency sample.
func (s *session) latency(d time.Duration) { s.lat = append(s.lat, d) }

// check counts one checked output and reports a failed one on stderr.
func (s *session) check(ok bool, format string, args ...interface{}) {
	failed := int64(0)
	if !ok {
		failed = 1
	}
	s.tally(1, failed, format, args...)
}

// tally counts n checked outputs of which failed failed, and reports
// any failure on stderr.
func (s *session) tally(n, failed int64, format string, args ...interface{}) {
	s.attempted += n
	if failed > 0 {
		s.failed += failed
		fmt.Fprintf(os.Stderr, "chronosbench: check failed: "+format+"\n", args...)
	}
}

// span runs fn inside a trace span named name (a plain call when the run
// is untraced).
func (s *session) span(name string, fn func() error) error {
	i := s.tr.begin(name)
	err := fn()
	s.tr.end(i)
	return err
}

// counters is a snapshot of the process counters a measured region is
// charged with.
type counters struct {
	allocs    uint64  // heap objects allocated
	gcCPU     float64 // runtime estimate of GC CPU seconds
	usedCPU   float64 // runtime estimate of non-idle CPU seconds
	liveBytes uint64  // heap live after the last GC
	procCPU   time.Duration
}

var counterNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readCounters() counters {
	samples := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return counters{
		allocs:    samples[0].Value.Uint64(),
		gcCPU:     samples[1].Value.Float64(),
		usedCPU:   samples[2].Value.Float64() - samples[3].Value.Float64(),
		liveBytes: samples[4].Value.Uint64(),
		procCPU:   processCPU(),
	}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's peak resident set size back to its
// current one.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set size in MB since it
// started or since resetPeakRSS: VmHWM in /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// regionTotals sums counters over measured regions.
type regionTotals struct {
	wall     time.Duration
	units    float64
	allocs   uint64
	gcCPU    float64
	usedCPU  float64
	procCPU  time.Duration
	peakLive uint64
}

func (t *regionTotals) add(before, after counters, wall time.Duration, units float64) {
	t.wall += wall
	t.units += units
	t.allocs += after.allocs - before.allocs
	t.gcCPU += after.gcCPU - before.gcCPU
	t.usedCPU += after.usedCPU - before.usedCPU
	t.procCPU += after.procCPU - before.procCPU
	if after.liveBytes > t.peakLive {
		t.peakLive = after.liveBytes
	}
}

// span is one traced interval. Times are nanoseconds since the trace
// started; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. Spans nest on the
// driver's single goroutine, so the open spans form a stack. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one; end closes it.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.record(name, now, now)
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// record adds a finished span under the innermost open one: work that ran
// on other goroutines is recorded once it has ended.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := 0
	if k := len(t.open); k > 0 {
		parent = t.spans[t.open[k-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// setSelfTimes fills each span's Self: its duration minus the part of
// its interval that its child spans cover.
func setSelfTimes(spans []span) {
	children := map[int][]int{}
	for i, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	for i := range spans {
		p := &spans[i]
		var ivs [][2]int64
		for _, c := range children[p.ID] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		p.Self = (p.End - p.Start) - covered(ivs)
	}
}

// covered is the length of the union of half-open intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, end int64
	for k, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if k > 0 && lo < end {
			lo = end
		}
		if hi > lo {
			total += hi - lo
		}
		if k == 0 || hi > end {
			end = hi
		}
	}
	return total
}

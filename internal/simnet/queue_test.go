package simnet

import (
	"math/rand"
	"testing"
	"time"
)

// randomDelay draws scheduling offsets spanning every tier of the
// calendar: zero (same-instant seq ordering), sub-bucket, within the L0
// window, within the L1 horizon, and beyond it into the outer tier.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1, 2, 3:
		return time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
	case 4, 5, 6:
		return time.Duration(rng.Int63n(int64(3 * time.Second)))
	case 7, 8:
		return time.Duration(rng.Int63n(int64(3 * time.Hour)))
	default:
		return time.Duration(rng.Int63n(int64(300 * time.Hour)))
	}
}

// refQueue is the reference scheduler the calendar is held to: a plain
// binary heap in (when, seq) order — the pre-calendar engine's total
// order — that prunes cancelled timers eagerly from the top. Each entry's
// h is a timer id indexing the per-timer fired/cancelled state, not a
// slab handle.
type refQueue struct {
	heap      qheap
	nowNs     int64
	seq       uint64
	fired     []bool
	cancelled []bool
	log       []int32 // timer ids in dispatch order
}

// after schedules a timer d from now and returns its id.
func (q *refQueue) after(d time.Duration) int32 {
	id := int32(len(q.fired))
	q.fired = append(q.fired, false)
	q.cancelled = append(q.cancelled, false)
	q.seq++
	q.heap.push(qitem{when: q.nowNs + int64(d), seq: q.seq, h: id})
	return id
}

// cancel reports whether the timer was still pending, as Timer.Cancel.
func (q *refQueue) cancel(id int32) bool {
	if q.fired[id] || q.cancelled[id] {
		return false
	}
	q.cancelled[id] = true
	return true
}

// peek returns the earliest pending timer.
func (q *refQueue) peek() (qitem, bool) {
	for len(q.heap.items) > 0 {
		if top := q.heap.items[0]; !q.cancelled[top.h] {
			return top, true
		}
		q.heap.pop()
	}
	return qitem{}, false
}

// step fires the earliest pending timer, as Network.Step.
func (q *refQueue) step() bool {
	top, ok := q.peek()
	if !ok {
		return false
	}
	q.heap.pop()
	q.nowNs = max(q.nowNs, top.when)
	q.fired[top.h] = true
	q.log = append(q.log, top.h)
	return true
}

// fastForward fires every timer due within d and advances the clock by d,
// returning the number fired, as Network.FastForward.
func (q *refQueue) fastForward(d time.Duration) int {
	untilNs := q.nowNs + int64(d)
	executed := 0
	for top, ok := q.peek(); ok && top.when <= untilNs; top, ok = q.peek() {
		q.step()
		executed++
	}
	q.nowNs = max(q.nowNs, untilNs)
	return executed
}

// TestCalendarHeapEquivalence is the queue's ground truth: a million
// randomized schedule/cancel/advance/peek operations driven through the
// calendar queue and the reference heap in lockstep must produce the
// same cancel outcomes, the same NextEventAt answers, the same per-window
// executed-event counts, and — above all — the identical dispatch order.
// The (when, seq) total order is the contract every golden, conformance,
// and determinism test in the repo stands on.
func TestCalendarHeapEquivalence(t *testing.T) {
	ops := 1_000_000
	if testing.Short() {
		ops = 100_000
	}
	calNet := New(Config{Seed: 42})
	var ref refQueue

	var calLog []int32
	var timers []Timer // indexed by reference timer id
	var pending []int32
	rng := rand.New(rand.NewSource(99)) // op script
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 45: // schedule
			d := randomDelay(rng)
			id := ref.after(d)
			timers = append(timers, calNet.After(d, func() { calLog = append(calLog, id) }))
			pending = append(pending, id)
		case r < 65: // cancel a random (possibly stale) timer
			if len(pending) == 0 {
				continue
			}
			j := rng.Intn(len(pending))
			id := pending[j]
			pending[j] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if c1, c2 := timers[id].Cancel(), ref.cancel(id); c1 != c2 {
				t.Fatalf("op %d: cancel diverges: calendar %v, reference %v", op, c1, c2)
			}
		case r < 90: // advance
			d := randomDelay(rng) / 3
			e1 := calNet.FastForward(d)
			e2 := ref.fastForward(d)
			if e1 != e2 {
				t.Fatalf("op %d: FastForward(%v) executed %d vs %d events", op, d, e1, e2)
			}
			if calNet.nowNs != ref.nowNs {
				t.Fatalf("op %d: clocks diverge: %d vs %d ns", op, calNet.nowNs, ref.nowNs)
			}
		default: // peek
			w1, ok1 := calNet.NextEventAt()
			it, ok2 := ref.peek()
			if w2 := calNet.start.Add(time.Duration(it.when)); ok1 != ok2 || (ok1 && !w1.Equal(w2)) {
				t.Fatalf("op %d: NextEventAt diverges: (%v,%v) vs (%v,%v)", op, w1, ok1, w2, ok2)
			}
		}
	}
	// Drain everything still pending, including far-future outer-tier
	// events, and compare the complete dispatch histories.
	for calNet.Step() {
	}
	for ref.step() {
	}
	if len(calLog) != len(ref.log) {
		t.Fatalf("dispatch count diverges: calendar %d, reference %d", len(calLog), len(ref.log))
	}
	for i := range calLog {
		if calLog[i] != ref.log[i] {
			t.Fatalf("dispatch order diverges at %d: calendar ran %d, reference ran %d", i, calLog[i], ref.log[i])
		}
	}
	if len(calLog) == 0 || len(pending) == len(calLog) {
		t.Fatalf("degenerate run: %d dispatches", len(calLog))
	}
}

// TestMassCancellationSweptOnce pins the tombstone contract from the
// cancelled-event rework: cancelling is O(1) (no queue surgery), and
// every dead event is visited exactly once by a sweep — dispatch after a
// mass cancellation (the timeout-heavy fleet pattern that degraded the
// old heap to O(dead·log n) eager pops) does O(dead) total work, not
// O(dead) per surviving pop.
func TestMassCancellationSweptOnce(t *testing.T) {
	const total = 50_000
	n := New(Config{Seed: 7})
	fired := 0
	timers := make([]Timer, 0, total)
	// Spread timers across all three tiers: microseconds to hundreds of
	// hours out.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < total; i++ {
		timers = append(timers, n.After(randomDelay(rng)+time.Microsecond, func() { fired++ }))
	}
	// Cancel all but every 100th timer.
	cancelled := 0
	for i, tm := range timers {
		if i%100 == 0 {
			continue
		}
		if !tm.Cancel() {
			t.Fatalf("timer %d: cancel failed before dispatch", i)
		}
		cancelled++
	}
	if got := n.sweptTombstones(); got != 0 {
		t.Fatalf("cancellation itself swept %d events; want lazy tombstones (0)", got)
	}
	// Survivors must still dispatch — in order — and draining the queue
	// must reclaim each tombstone exactly once.
	last := n.Now()
	for n.Step() {
		if n.Now().Before(last) {
			t.Fatal("virtual time moved backwards during sweep")
		}
		last = n.Now()
	}
	if want := total - cancelled; fired != want {
		t.Fatalf("fired %d survivors, want %d", fired, want)
	}
	if got := n.sweptTombstones(); got != uint64(cancelled) {
		t.Fatalf("swept %d tombstones over the drain, want exactly %d (each dead event visited once)",
			got, cancelled)
	}
}

// TestEventQueueSteadyStateAllocFree pins schedule+dispatch to zero
// allocations once the slab, free-list, and bucket spare pool are warm —
// the property that keeps fleet-scale GC pressure flat as the wheels
// rotate through fresh time windows.
func TestEventQueueSteadyStateAllocFree(t *testing.T) {
	n := New(Config{Seed: 9})
	fired := 0
	fn := func() { fired++ }
	cycle := func() {
		for i := 0; i < 64; i++ {
			n.After(time.Duration(i)*137*time.Microsecond, fn)
		}
		n.RunFor(50 * time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm slab, free-list, and bucket spares
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule+dispatch allocates %.1f objects/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired; the cycle under test is vacuous")
	}
}

// sweptTombstones reports how many cancelled events the calendar's lazy
// sweeps have reclaimed so far (test hook).
func (n *Network) sweptTombstones() uint64 { return n.cal.swept }

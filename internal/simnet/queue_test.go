package simnet

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// randomDelay draws scheduling offsets across every scale the scheduler
// meets: zero (same-instant ordering by key), packet delays under 2 ms,
// seconds, hours, and hundreds of hours (a far-future timer that sits
// under everything else).
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

// refEntry is one queued reference timer: its instant, its key and its id.
type refEntry struct {
	when int64
	key  uint64
	id   int32
}

// refHeap orders reference timers for container/heap by (instant, key),
// with its own comparison, so a fault in qitem.before or qheap cannot
// hide in the model. pos[id] is a queued timer's index, which lets a
// cancel remove it at once.
type refHeap struct {
	entries []refEntry
	pos     []int
}

func (h *refHeap) Len() int { return len(h.entries) }

func (h *refHeap) Less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.key < b.key
}

func (h *refHeap) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.pos[h.entries[i].id] = i
	h.pos[h.entries[j].id] = j
}

func (h *refHeap) Push(x any) {
	e := x.(refEntry)
	h.pos[e.id] = len(h.entries)
	h.entries = append(h.entries, e)
}

func (h *refHeap) Pop() any {
	last := len(h.entries) - 1
	e := h.entries[last]
	h.entries = h.entries[:last]
	return e
}

// refFire is one dispatch: which timer ran, and the clock when it did.
type refFire struct {
	id   int32
	atNs int64
}

// refQueue is the reference scheduler the network is held to: timers in
// (instant, key) order, every key drawn from one counter as After and
// Reserve draw theirs. It keeps no tombstones: a cancel removes the timer
// from the heap at once. A timer's id indexes the per-timer state.
type refQueue struct {
	heap    refHeap
	nowNs   int64
	seq     uint64
	pending []bool
	log     []refFire
}

// reserve takes the next key without queuing anything, as Network.Reserve.
func (q *refQueue) reserve() uint64 {
	q.seq++
	return q.seq
}

// at queues a timer at whenNs under key and returns its id, as
// Network.AtUnixNano: an instant already passed runs at now.
func (q *refQueue) at(whenNs int64, key uint64) int32 {
	id := int32(len(q.pending))
	q.pending = append(q.pending, true)
	q.heap.pos = append(q.heap.pos, -1)
	heap.Push(&q.heap, refEntry{when: max(whenNs, q.nowNs), key: key, id: id})
	return id
}

// after queues a timer d from now under a fresh key, as Network.After.
func (q *refQueue) after(d time.Duration) int32 {
	return q.at(q.nowNs+int64(d), q.reserve())
}

// cancel reports whether the timer was still pending, as Timer.Cancel.
func (q *refQueue) cancel(id int32) bool {
	if !q.pending[id] {
		return false
	}
	q.pending[id] = false
	heap.Remove(&q.heap, q.heap.pos[id])
	return true
}

// peek returns the earliest pending timer.
func (q *refQueue) peek() (refEntry, bool) {
	if len(q.heap.entries) == 0 {
		return refEntry{}, false
	}
	return q.heap.entries[0], true
}

// step fires the earliest pending timer, as Network.Step.
func (q *refQueue) step() bool {
	if len(q.heap.entries) == 0 {
		return false
	}
	top := heap.Pop(&q.heap).(refEntry)
	q.nowNs = max(q.nowNs, top.when)
	q.pending[top.id] = false
	q.log = append(q.log, refFire{id: top.id, atNs: q.nowNs})
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

// TestCalendarHeapEquivalence is the scheduler's ground truth: a million
// randomized operations driven through a Network and through refQueue in
// lockstep must produce the same keys, the same cancel outcomes, the same
// next-event answers, the same per-window executed-event counts, the
// same clocks and — above all — the identical dispatch order. The ops
// cover every way an event enters the queue: After, and a key taken with
// Reserve and queued later with AtUnixNano, sometimes at an instant that
// has already passed and so runs at now. The (when, seq) total order is
// the contract every golden, conformance, and determinism test in the
// repo stands on. (The name dates from the calendar queue this test once
// held to a heap.)
func TestCalendarHeapEquivalence(t *testing.T) {
	ops := 1_000_000
	if testing.Short() {
		ops = 100_000
	}
	n := New(Config{Seed: 42})
	var ref refQueue

	// reservation is a key taken on both sides and not yet queued.
	type reservation struct {
		whenNs int64
		key    Key
		refKey uint64
	}
	var netLog []refFire
	var timers []Timer // indexed by reference timer id
	var pending []int32
	var reserved []reservation
	late, onTime, steps := 0, 0, 0
	track := func(id int32, tm Timer) {
		timers = append(timers, tm)
		pending = append(pending, id)
	}
	fire := func(id int32) func() {
		return func() { netLog = append(netLog, refFire{id: id, atNs: n.nowNs}) }
	}
	rng := rand.New(rand.NewSource(99)) // op script
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 35: // schedule
			d := randomDelay(rng)
			id := ref.after(d)
			track(id, n.After(d, fire(id)))
		case r < 40: // reserve a key for an instant from now
			k, rk := n.Reserve(), ref.reserve()
			if uint64(k) != rk {
				t.Fatalf("op %d: Reserve diverges: network %d, reference %d", op, k, rk)
			}
			reserved = append(reserved, reservation{whenNs: n.nowNs + int64(randomDelay(rng)), key: k, refKey: rk})
		case r < 45: // queue a reserved key, perhaps after its instant passed
			if len(reserved) == 0 {
				continue
			}
			j := rng.Intn(len(reserved))
			res := reserved[j]
			reserved[j] = reserved[len(reserved)-1]
			reserved = reserved[:len(reserved)-1]
			if res.whenNs < n.nowNs {
				late++
			} else {
				onTime++
			}
			id := ref.at(res.whenNs, res.refKey)
			track(id, n.AtUnixNano(n.startUnix+res.whenNs, res.key, fire(id)))
		case r < 65: // cancel a random (possibly stale) timer
			if len(pending) == 0 {
				continue
			}
			j := rng.Intn(len(pending))
			id := pending[j]
			pending[j] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if c1, c2 := timers[id].Cancel(), ref.cancel(id); c1 != c2 {
				t.Fatalf("op %d: cancel diverges: network %v, reference %v", op, c1, c2)
			}
		case r < 85: // advance
			d := randomDelay(rng) / 3
			e1 := n.FastForward(d)
			e2 := ref.fastForward(d)
			if e1 != e2 {
				t.Fatalf("op %d: FastForward(%v) executed %d vs %d events", op, d, e1, e2)
			}
			if n.nowNs != ref.nowNs {
				t.Fatalf("op %d: clocks diverge: %d vs %d ns", op, n.nowNs, ref.nowNs)
			}
		case r < 90: // a bare Step
			s1, s2 := n.Step(), ref.step()
			if s1 != s2 {
				t.Fatalf("op %d: Step diverges: network %v, reference %v", op, s1, s2)
			}
			if n.nowNs != ref.nowNs {
				t.Fatalf("op %d: clocks diverge after Step: %d vs %d ns", op, n.nowNs, ref.nowNs)
			}
			steps++
		default: // peek
			w1, ok1 := nextEventAt(n)
			it, ok2 := ref.peek()
			if w2 := n.start.Add(time.Duration(it.when)); ok1 != ok2 || (ok1 && !w1.Equal(w2)) {
				t.Fatalf("op %d: nextEventAt diverges: (%v,%v) vs (%v,%v)", op, w1, ok1, w2, ok2)
			}
		}
	}
	// Drain everything still pending, far-future events included, and
	// compare the complete dispatch histories.
	for n.Step() {
	}
	for ref.step() {
	}
	if len(netLog) != len(ref.log) {
		t.Fatalf("dispatch count diverges: network %d, reference %d", len(netLog), len(ref.log))
	}
	for i := range netLog {
		if netLog[i] != ref.log[i] {
			t.Fatalf("dispatch %d diverges: network ran timer %d at %d ns, reference timer %d at %d ns",
				i, netLog[i].id, netLog[i].atNs, ref.log[i].id, ref.log[i].atNs)
		}
	}
	if len(netLog) == 0 || len(pending) == len(netLog) || late == 0 || onTime == 0 || steps == 0 {
		t.Fatalf("degenerate run: %d dispatches, %d reserved keys queued late and %d on time, %d steps",
			len(netLog), late, onTime, steps)
	}
	t.Logf("%d dispatches, %d reserved keys queued late and %d on time, %d steps", len(netLog), late, onTime, steps)
}

// TestMassCancellationSweptOnce pins the tombstone contract: cancelling
// only flips a flag and touches no queue, and draining the queue
// reclaims every dead event exactly once, as it reaches the root, while
// the survivors still dispatch in time order.
func TestMassCancellationSweptOnce(t *testing.T) {
	const total = 50_000
	n := New(Config{Seed: 7})
	fired := 0
	timers := make([]Timer, 0, total)
	// Spread timers from microseconds to hundreds of hours out.
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
// allocations once the slab, the free-list and the heap's array are
// warm, so a long run's GC pressure stays flat.
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
		cycle() // warm the slab, the free-list and the heap's array
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule+dispatch allocates %.1f objects/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired; the cycle under test is vacuous")
	}
}

// sweptTombstones reports how many cancelled events have been reclaimed
// off the queue so far (test hook).
func (n *Network) sweptTombstones() uint64 { return n.swept }

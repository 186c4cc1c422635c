package simnet

import "math/bits"

// This file is the event engine: a slab of events addressed by int32
// handles plus a two-level calendar queue (a rotating bucket wheel with a
// sorted far-future overflow tier) that replaced the container/heap
// binary heap of *event pointers.
//
// Why a slab: the fleet engine keeps hundreds of thousands of events in
// flight across 100 shard networks. As individual heap objects (even
// free-listed ones) every live event is a pointer-dense allocation the
// garbage collector must find and scan on every cycle — ~25% of fleet
// CPU went to GC scanning. In the slab, all events of a network live in
// one growable []event; the collector sees a single object and the
// free-list is a []int32 of slot indices. Handles are generation-counted
// exactly like the old pointer free-list, so a stale Timer can never
// cancel a slot's next occupant.
//
// Why a calendar queue: the binary heap costs O(log n) pointer-chasing
// compares per push and per pop (~18% of fleet CPU), and cancelled
// events had to be popped eagerly from the top — mass cancellation
// (timeout-heavy fleets) degraded to O(dead·log n). The calendar queue
// keys events by their absolute int64-ns virtual time:
//
//   - L0, the dispatch wheel: l0Size buckets of l0Width ns each,
//     covering exactly one L1 bucket's window. Each bucket is kept
//     sorted by (when, seq) with a binary-search insert — buckets are
//     small, so the insert touches one or two cache lines and performs
//     no slab derefs (the sort key is stored next to the handle).
//     Dispatch pops from the front of the current bucket: O(1).
//   - L1, the overflow wheel: l1Size buckets of l1Width = l0Size·l0Width
//     ns each, unsorted append. When the dispatch wheel drains, the next
//     non-empty L1 bucket is migrated into L0 (each event migrates at
//     most once, so scheduling remains O(1) amortized).
//   - outer, the far-future tier: a binary min-heap of (when, seq) keys
//     for events beyond the L1 horizon (~2.4 h). Its root is the
//     earliest far event, so NextEventAt and an idle FastForward hop
//     stay O(1) no matter how far the next timer is — the property
//     shiftsim's decade-horizon round compression depends on — while
//     inserts stay O(log n) even under far-future-heavy load (a sorted
//     slice degraded to O(n) memmoves there; BenchmarkEventQueue's
//     standing population is exactly that workload).
//
// Cancellation is a lazy tombstone: Timer.Cancel flips the event's
// cancelled flag and the queue reclaims the slot when the sweep reaches
// it — never by re-heapifying. Every dead event is visited exactly once.
//
// Event ordering is the same (when, seq) total order the heap used, so
// dispatch is bit-identical; queue_test.go holds the calendar to a plain
// binary-heap reference model over a million randomized operations.

// Calendar geometry. l0Width is ~2.1 ms — a couple of propagation
// delays, so packet deliveries spread across a handful of sorted
// buckets. One L1 bucket spans the whole L0 wheel (~2.15 s), and the L1
// wheel spans ~2.45 h, which holds the hourly pool-generation timers of
// a fleet shard; only multi-hour timers reach the sorted outer tier.
const (
	l0Shift = 21 // log2 of the L0 bucket width in ns (~2.1 ms)
	l0Bits  = 10
	l0Size  = 1 << l0Bits // L0 wheel: 1024 buckets ≈ 2.15 s
	l0Mask  = l0Size - 1
	l1Shift = l0Shift + l0Bits // log2 of the L1 bucket width (~2.15 s)
	l1Bits  = 12
	l1Size  = 1 << l1Bits // L1 wheel: 4096 buckets ≈ 2.45 h
	l1Mask  = l1Size - 1
)

// qitem is a queue entry: the (when, seq) sort key stored inline — so
// ordering never dereferences the slab — plus the event's slab handle.
type qitem struct {
	when int64
	seq  uint64
	h    int32
}

// before reports whether a precedes b in dispatch order.
func (a qitem) before(b qitem) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// calendar is the two-level wheel. Positions (l1Cur, l0Pos) advance only
// during dispatch — peeks never move them — so virtual time can lag the
// wheel without events ever landing behind the cursor.
type calendar struct {
	l0     [l0Size][]qitem // sorted by (when, seq)
	l0head [l0Size]int32   // dispatch cursor; >0 only for the current bucket
	l0bits [l0Size / 64]uint64
	l1     [l1Size][]qitem // unsorted
	l1bits [l1Size / 64]uint64
	outer  qheap // far-future min-heap

	l1Cur   int64 // absolute L1 bucket whose window L0 currently covers
	l0Pos   int32 // current L0 slot within that window
	l0Count int   // entries resident in L0 (tombstones included)
	l1Count int
	swept   uint64 // tombstoned events lazily reclaimed (test hook)

	// Cached queue minimum. The event pump peeks (to bound the run
	// window) and then pops every event; the cache makes the second scan
	// O(1). A push of an earlier entry updates it, popping consumes it,
	// and cancelling the cached event invalidates it.
	peekItem  qitem
	peekValid bool

	// spares holds the backing arrays of emptied buckets. A bucket that
	// drains donates its storage here; the next bucket that goes
	// non-empty takes one back. Total storage tracks the maximum number
	// of concurrently non-empty buckets, so steady-state scheduling
	// allocates nothing even as the wheels rotate through fresh slots.
	spares [][]qitem
}

// takeSpare returns a recycled empty bucket array, or a fresh one with
// enough capacity to skip the small-append growth ladder.
func (c *calendar) takeSpare() []qitem {
	if k := len(c.spares) - 1; k >= 0 {
		s := c.spares[k]
		c.spares[k] = nil
		c.spares = c.spares[:k]
		return s
	}
	return make([]qitem, 0, 8)
}

// giveSpare donates a drained bucket's storage to the spare pool.
func (c *calendar) giveSpare(s []qitem) {
	if cap(s) > 0 {
		c.spares = append(c.spares, s[:0])
	}
}

// nextSet returns the index of the first set bit at or after from, or -1.
func nextSet(bitmap []uint64, from int) int {
	w := from >> 6
	if w >= len(bitmap) {
		return -1
	}
	word := bitmap[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
		w++
		if w >= len(bitmap) {
			return -1
		}
		word = bitmap[w]
	}
}

// place routes an entry to its tier. The caller guarantees
// it.when>>l1Shift >= l1Cur (virtual time never runs ahead of the wheel).
func (n *Network) place(it qitem) {
	c := &n.cal
	b := it.when >> l1Shift
	switch {
	case b == c.l1Cur:
		n.l0insert(it)
	case b <= c.l1Cur+l1Size:
		slot := b & l1Mask
		s := c.l1[slot]
		if s == nil {
			s = c.takeSpare()
		}
		c.l1[slot] = append(s, it)
		c.l1bits[slot>>6] |= 1 << (uint(slot) & 63)
		c.l1Count++
	default:
		c.outer.push(it)
	}
}

// l0insert adds an entry to its sorted dispatch bucket. The common case
// — the entry sorts after everything already there — is a plain append.
func (n *Network) l0insert(it qitem) {
	c := &n.cal
	slot := (it.when >> l0Shift) & l0Mask
	s := c.l0[slot]
	if s == nil {
		s = c.takeSpare()
	}
	if k := len(s); k == 0 || s[k-1].before(it) {
		c.l0[slot] = append(s, it)
	} else {
		lo, hi := int(c.l0head[slot]), k
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s[mid].before(it) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		s = append(s, qitem{})
		copy(s[lo+1:], s[lo:])
		s[lo] = it
		c.l0[slot] = s
	}
	c.l0bits[slot>>6] |= 1 << (uint(slot) & 63)
	c.l0Count++
}

// sweepL0 advances a bucket's cursor past tombstones, reclaiming their
// slots. It reports whether a live entry remains at the cursor; an
// exhausted bucket is reset for reuse.
func (n *Network) sweepL0(slot int64) bool {
	c := &n.cal
	s := c.l0[slot]
	head := int(c.l0head[slot])
	for head < len(s) {
		if ev := &n.events[s[head].h]; !ev.cancelled {
			break
		}
		n.recycleEvent(s[head].h)
		head++
		c.l0Count--
		c.swept++
	}
	if head == len(s) {
		c.giveSpare(s)
		c.l0[slot] = nil
		c.l0head[slot] = 0
		c.l0bits[slot>>6] &^= 1 << (uint(slot) & 63)
		return false
	}
	c.l0head[slot] = int32(head)
	return true
}

// ensureL0 migrates events into the dispatch wheel until it holds the
// global minimum (or reports an empty queue). Only dispatch calls it:
// it advances l1Cur, which is safe exactly because the next Step jumps
// virtual time to the migrated bucket's first event.
func (n *Network) ensureL0() bool {
	c := &n.cal
	for c.l0Count == 0 {
		switch {
		case c.l1Count > 0:
			// Migrate the next non-empty L1 bucket. Ring order from
			// l1Cur+1 is absolute-time order: the window (l1Cur,
			// l1Cur+l1Size] maps each bucket to a distinct slot.
			s0 := int((c.l1Cur + 1) & l1Mask)
			slot := nextSet(c.l1bits[:], s0)
			if slot < 0 {
				slot = nextSet(c.l1bits[:], 0)
			}
			c.l1Cur += (int64(slot)-int64(s0))&l1Mask + 1
			c.l0Pos = 0
			items := c.l1[slot]
			c.l1Count -= len(items)
			c.l1[slot] = nil // detach before inserting: l0insert must not grab this array as a spare mid-iteration
			c.l1bits[slot>>6] &^= 1 << (uint(slot) & 63)
			for _, it := range items {
				if n.events[it.h].cancelled {
					n.recycleEvent(it.h)
					c.swept++
					continue
				}
				n.l0insert(it)
			}
			c.giveSpare(items)
		case len(c.outer.items) > 0:
			// The wheel is empty: jump it to the overflow root. This is
			// the O(1) idle hop FastForward relies on.
			c.l1Cur = c.outer.items[0].when >> l1Shift
			c.l0Pos = 0
		default:
			return false
		}
		n.drainOuter()
	}
	return true
}

// drainOuter moves overflow entries that now fit the wheels. Called
// whenever l1Cur advances; eligibility is a root check.
func (n *Network) drainOuter() {
	c := &n.cal
	for len(c.outer.items) > 0 {
		it := c.outer.items[0]
		if it.when>>l1Shift > c.l1Cur+l1Size {
			break
		}
		c.outer.pop()
		n.place(it)
	}
}

// peekMin returns the earliest live entry without advancing the wheel —
// the non-mutating half of dispatch, shared by NextEventAt and the
// runUntil window check. Tombstones encountered on the way are swept,
// and the answer is cached until it is popped or cancelled.
func (n *Network) peekMin() (qitem, bool) {
	c := &n.cal
	if c.peekValid {
		return c.peekItem, true
	}
	it, ok := n.scanMin()
	if ok {
		c.peekItem, c.peekValid = it, true
	}
	return it, ok
}

// scanMin finds the earliest live entry by scanning the tiers.
func (n *Network) scanMin() (qitem, bool) {
	c := &n.cal
	// L0 first: everything in it precedes all of L1 and outer.
	for pos := int(c.l0Pos); c.l0Count > 0; {
		slot := nextSet(c.l0bits[:], pos)
		if slot < 0 {
			break // only tombstone-free empty buckets ahead; counts say none live
		}
		if n.sweepL0(int64(slot)) {
			s := c.l0[slot]
			return s[c.l0head[slot]], true
		}
		pos = slot + 1
	}
	if c.l1Count > 0 {
		// The first non-empty L1 bucket in ring order holds the minimum;
		// its entries are unsorted, so scan them (once per migration
		// window — the bucket is migrated before its first dispatch).
		s0 := int((c.l1Cur + 1) & l1Mask)
		for {
			slot := nextSet(c.l1bits[:], s0)
			if slot < 0 {
				slot = nextSet(c.l1bits[:], 0)
			}
			if slot < 0 {
				break
			}
			items := c.l1[slot]
			kept := items[:0]
			var min qitem
			ok := false
			for _, it := range items {
				if n.events[it.h].cancelled {
					n.recycleEvent(it.h)
					c.l1Count--
					c.swept++
					continue
				}
				kept = append(kept, it)
				if !ok || it.before(min) {
					min, ok = it, true
				}
			}
			if ok {
				c.l1[slot] = kept
				return min, true
			}
			c.giveSpare(items)
			c.l1[slot] = nil
			c.l1bits[slot>>6] &^= 1 << (uint(slot) & 63)
			if c.l1Count == 0 {
				break
			}
			s0 = slot + 1
		}
	}
	for len(c.outer.items) > 0 {
		it := c.outer.items[0]
		if !n.events[it.h].cancelled {
			return it, true
		}
		c.outer.pop()
		n.recycleEvent(it.h)
		c.swept++
	}
	return qitem{}, false
}

// popMin removes and returns the earliest live event's handle, or -1.
func (n *Network) popMin() int32 {
	c := &n.cal
	if c.peekValid {
		// The event pump peeked this minimum moments ago. If it already
		// sits at the head of its dispatch bucket (the sweep in peekMin
		// put it there), pop it without rescanning.
		c.peekValid = false
		it := c.peekItem
		if it.when>>l1Shift == c.l1Cur {
			slot := (it.when >> l0Shift) & l0Mask
			s := c.l0[slot]
			if head := c.l0head[slot]; int(head) < len(s) && s[head] == it {
				c.l0Pos = int32(slot)
				c.l0head[slot] = head + 1
				c.l0Count--
				if int(head)+1 == len(s) {
					c.giveSpare(s)
					c.l0[slot] = nil
					c.l0head[slot] = 0
					c.l0bits[slot>>6] &^= 1 << (uint(slot) & 63)
				} else if nxt := s[head+1]; !n.events[nxt.h].cancelled {
					// The bucket successor is the new global minimum: this
					// is the lowest non-empty L0 slot, and all of L0
					// precedes L1 and outer. Re-arming the cache here makes
					// the peek→pop event pump scan-free in steady state.
					c.peekItem, c.peekValid = nxt, true
				}
				return it.h
			}
		}
	}
	for n.ensureL0() {
		slot := nextSet(c.l0bits[:], int(c.l0Pos))
		if slot < 0 {
			// All remaining L0 entries were tombstones swept elsewhere;
			// counts have caught up, go migrate more.
			continue
		}
		c.l0Pos = int32(slot)
		if !n.sweepL0(int64(slot)) {
			continue
		}
		s := c.l0[slot]
		head := c.l0head[slot]
		h := s[head].h
		c.l0head[slot] = head + 1
		c.l0Count--
		if int(head)+1 == len(s) {
			c.giveSpare(s)
			c.l0[slot] = nil
			c.l0head[slot] = 0
			c.l0bits[slot>>6] &^= 1 << (uint(slot) & 63)
		}
		return h
	}
	return -1
}

// qheap is a binary min-heap of (when, seq) keys: the calendar's
// far-future outer tier, and the reference scheduler queue_test.go
// holds the calendar to.
type qheap struct {
	items []qitem
}

func (q *qheap) push(it qitem) {
	q.items = append(q.items, it)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.items[i].before(q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *qheap) pop() qitem {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.items[l].before(q.items[small]) {
			small = l
		}
		if r < last && q.items[r].before(q.items[small]) {
			small = r
		}
		if small == i {
			break
		}
		q.items[i], q.items[small] = q.items[small], q.items[i]
		i = small
	}
	return top
}

// pushEvent enqueues slab slot h at absolute virtual time whenNs, after
// every event already queued for that instant.
func (n *Network) pushEvent(h int32, whenNs int64) {
	n.seq++
	n.pushKeyed(h, whenNs, n.seq)
}

// pushKeyed enqueues slab slot h at (whenNs, seq).
func (n *Network) pushKeyed(h int32, whenNs int64, seq uint64) {
	n.events[h].when = whenNs
	it := qitem{when: whenNs, seq: seq, h: h}
	if c := &n.cal; c.peekValid && it.before(c.peekItem) {
		c.peekItem = it // the push is the new minimum; the cache stays valid
	}
	n.place(it)
}

// allocEvent pops a free slab slot or grows the slab.
func (n *Network) allocEvent() int32 {
	if k := len(n.free) - 1; k >= 0 {
		h := n.free[k]
		n.free = n.free[:k]
		return h
	}
	n.events = append(n.events, event{})
	return int32(len(n.events) - 1)
}

// recycleEvent returns a slot to the free-list, releasing any pooled
// payload buffer it carried and bumping the generation so outstanding
// Timer handles go inert.
func (n *Network) recycleEvent(h int32) {
	ev := &n.events[h]
	if ev.buf != nil {
		n.releaseBuf(ev.buf)
		ev.buf = nil
	}
	ev.fn = nil
	ev.pkt = Packet{}
	ev.kind = evFn
	ev.cancelled = false
	ev.gen++
	n.free = append(n.free, h)
}

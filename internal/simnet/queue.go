package simnet

// This file is the event engine: a slab of events addressed by int32
// handles, scheduled on a binary min-heap of (when, seq) keys.
//
// Why a slab: all events of a network live in one growable []event and
// the free-list is a []int32 of slot indices, so steady-state scheduling
// allocates nothing and the garbage collector sees one object per
// network, not one per pending event. Handles are generation-counted, so
// a stale Timer can never cancel a slot's next occupant.
//
// Why a plain heap: queues are shallow. Fleet clients are rows under one
// event per schedule, so a fleet shard holds about two events at a time
// and the packet experiments a few dozen (a few hundred at most). Each
// heap entry stores its sort key next to the handle, so ordering never
// dereferences the slab.
//
// Cancellation is a lazy tombstone: Timer.Cancel flips the event's
// cancelled flag and leaves it queued. peekMin pops cancelled roots and
// reclaims their slots, so every dead event is swept exactly once, when
// it reaches the top. queue_test.go holds the heap to a reference model
// with its own ordering code over a million randomized operations.

// qitem is a queue entry: the (when, seq) sort key stored inline, plus
// the event's slab handle.
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

// qheap is a binary min-heap of queue entries in (when, seq) order: the
// network's scheduler.
type qheap struct {
	items []qitem
}

func (q *qheap) push(it qitem) {
	q.items = append(q.items, it)
	items := q.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = it
}

func (q *qheap) pop() qitem {
	items := q.items
	top := items[0]
	last := len(items) - 1
	it := items[last]
	q.items = items[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && items[r].before(items[c]) {
			c = r
		}
		if !items[c].before(it) {
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = it
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
	n.queue.push(qitem{when: whenNs, seq: seq, h: h})
}

// peekMin returns the earliest live entry, leaving it queued. Cancelled
// entries it finds at the root are popped and their slots reclaimed.
func (n *Network) peekMin() (qitem, bool) {
	q := &n.queue
	for len(q.items) > 0 {
		it := q.items[0]
		if !n.events[it.h].cancelled {
			return it, true
		}
		q.pop()
		n.recycleEvent(it.h)
		n.swept++
	}
	return qitem{}, false
}

// popMin removes and returns the earliest live event's handle, or -1.
func (n *Network) popMin() int32 {
	it, ok := n.peekMin()
	if !ok {
		return -1
	}
	n.queue.pop()
	return it.h
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
	n.releaseBuf(ev.buf)
	ev.buf = nil
	ev.fn = nil
	ev.pkt = Packet{}
	ev.kind = evFn
	ev.cancelled = false
	ev.gen++
	n.free = append(n.free, h)
}

// Package simnet is a deterministic discrete-event IPv4/UDP network
// simulator. It is the substrate every other component of the Chronos-NTP
// reproduction runs on: DNS servers and resolvers, NTP servers, Chronos and
// classic NTP clients, and the attackers.
//
// Design goals, in order:
//
//  1. Determinism. A single-threaded event loop over virtual time, ordered
//     by (timestamp, sequence number), with one seeded RNG. Every
//     experiment is bit-reproducible from its seed. No goroutines.
//  2. Protocol fidelity where the paper's attacks live: real UDP headers
//     and checksums, per-path MTU with genuine IPv4 fragmentation and
//     receiver-side reassembly caches (each host builds its cache when its
//     first fragment arrives), predictable per-host IPID counters
//     (the classic globally incrementing counter that makes fragment
//     injection practical), and raw-packet injection for off-path
//     attackers.
//  3. Simplicity elsewhere: no routing tables (full mesh), no TCP, no ICMP
//     beyond silent drops.
//
// The hot paths are allocation-free in steady state: events live in a
// slab — one growable []event arena addressed by generation-counted int32
// handles, so the GC scans a single pointer-dense object instead of one
// per in-flight event and a stale Timer handle cannot cancel a reused
// slot — scheduled on a binary min-heap of (int64-ns virtual time,
// sequence number) keys (see queue.go; cancelled events stay queued as
// tombstones and are swept when they reach the top). Packet delivery
// embeds the Packet in the event instead of a closure, and unfragmented
// datagram buffers come from a per-network pool that reclaims them the
// moment the receiving handler returns. Handlers therefore only borrow
// their payload: a handler that needs the bytes beyond its own
// invocation must copy them.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"chronosntp/internal/ipfrag"
)

// Errors returned by Network methods.
var (
	ErrHostExists   = errors.New("simnet: host already exists")
	ErrNoSuchHost   = errors.New("simnet: no such host")
	ErrPortInUse    = errors.New("simnet: port already bound")
	ErrPayloadLimit = errors.New("simnet: payload exceeds 65535 bytes")
)

// Meta carries per-datagram metadata into UDP handlers. Exposing the IPID
// matters: off-path attackers learn a server's IPID counter by eliciting
// any response from it.
type Meta struct {
	From Addr
	To   Addr
	IPID uint16
}

// Handler consumes a reassembled, checksum-valid UDP datagram. The payload
// is borrowed: it may be a pooled buffer that the network reclaims as soon
// as the handler returns, so a handler that keeps the bytes must copy them.
type Handler func(now time.Time, meta Meta, payload []byte)

// LatencyFn returns the one-way delay for a packet from src to dst. It may
// consult rng for jitter; the rng is the network's seeded source, so jitter
// is reproducible.
type LatencyFn func(src, dst IP, rng *rand.Rand) time.Duration

// LossFn reports whether a packet from src to dst is dropped.
type LossFn func(src, dst IP, rng *rand.Rand) bool

// DefaultMTU is the Ethernet MTU of every path without a SetPathMTU
// override.
const DefaultMTU = 1500

// Config parameterises a Network.
type Config struct {
	Seed    int64     // RNG seed; 0 means 1
	Start   time.Time // virtual-time origin; zero means 2020-06-01T00:00:00Z
	Latency LatencyFn // nil means 2ms + U[0,3ms) jitter
	Loss    LossFn    // nil means lossless
}

// Network is the simulated internet. All methods must be called from the
// event-loop thread (handlers and timer callbacks already are).
type Network struct {
	start     time.Time // virtual-time epoch; event times are ns since it
	startUnix int64     // start.UnixNano(), cached for NowUnixNano
	now       time.Time
	nowNs     int64
	seq       uint64
	events    []event  // slab: all events live here, addressed by handle
	free      []int32  // free slab slots (slots are generation-counted)
	queue     qheap    // pending events in (when, seq) order (see queue.go)
	swept     uint64   // tombstones reclaimed off the queue (test hook)
	bufs      [][]byte // pooled datagram buffers for the unfragmented path
	rng       *rand.Rand
	hosts     map[IP]*Host
	taps      []tapEntry
	tapSeq    uint64
	latency   LatencyFn
	loss      LossFn
	mtuOvr    map[[2]IP]int

	delivered uint64 // datagrams handed to handlers
	dropped   uint64 // packets lost, tapped away, or undeliverable
}

// New builds a Network from cfg.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	start := cfg.Start
	if start.IsZero() {
		start = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	}
	lat := cfg.Latency
	if lat == nil {
		lat = func(src, dst IP, rng *rand.Rand) time.Duration {
			return 2*time.Millisecond + time.Duration(rng.Int63n(int64(3*time.Millisecond)))
		}
	}
	loss := cfg.Loss
	if loss == nil {
		loss = func(src, dst IP, rng *rand.Rand) bool { return false }
	}
	return &Network{
		start:     start,
		startUnix: start.UnixNano(),
		now:       start,
		rng:       rand.New(rand.NewSource(seed)),
		hosts:     make(map[IP]*Host),
		latency:   lat,
		loss:      loss,
		mtuOvr:    make(map[[2]IP]int),
	}
}

// SetPathMTU overrides the MTU for the directed path src→dst. This models
// the effect of (spoofed) ICMP fragmentation-needed messages: off-path
// attackers shrink a nameserver's path MTU toward a victim resolver so its
// responses fragment. A non-positive mtu removes the override.
func (n *Network) SetPathMTU(src, dst IP, mtu int) {
	if mtu <= 0 {
		delete(n.mtuOvr, [2]IP{src, dst})
		return
	}
	n.mtuOvr[[2]IP{src, dst}] = mtu
}

// PathMTU reports the effective MTU for src→dst.
func (n *Network) PathMTU(src, dst IP) int {
	if mtu, ok := n.mtuOvr[[2]IP{src, dst}]; ok {
		return mtu
	}
	return DefaultMTU
}

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.now }

// NowUnixNano returns Now().UnixNano() without materializing a time.Time
// — the hot representation for code that timestamps per-packet state at
// fleet scale.
func (n *Network) NowUnixNano() int64 { return n.startUnix + n.nowNs }

// Rand returns the network's seeded RNG. Services use it so that a single
// seed reproduces the entire run.
func (n *Network) Rand() *rand.Rand { return n.rng }

// AddHost registers a host at ip.
func (n *Network) AddHost(ip IP) (*Host, error) {
	if _, ok := n.hosts[ip]; ok {
		return nil, fmt.Errorf("%w: %s", ErrHostExists, ip)
	}
	h := &Host{
		net:      n,
		ip:       ip,
		ports:    make(map[uint16]Handler),
		nextIPID: uint16(n.rng.Intn(1 << 16)),
		nextEph:  49152,
	}
	n.hosts[ip] = h
	return h, nil
}

// AddTap installs an on-path observer/mutator and returns a handle used to
// remove it. Taps run in installation order; the first non-Pass verdict
// wins. While any tap is installed, transmitted buffers are handed to the
// tap chain un-pooled (a Replace verdict may alias them), so the zero-alloc
// fast path applies only to tap-free networks.
func (n *Network) AddTap(t Tap) TapHandle {
	n.tapSeq++
	n.taps = append(n.taps, tapEntry{id: n.tapSeq, tap: t})
	return TapHandle{net: n, id: n.tapSeq}
}

// TapHandle identifies an installed tap.
type TapHandle struct {
	net *Network
	id  uint64
}

// Remove uninstalls the tap, reporting whether it was still installed.
func (h TapHandle) Remove() bool {
	if h.net == nil {
		return false
	}
	for i, cur := range h.net.taps {
		if cur.id == h.id {
			h.net.taps = append(h.net.taps[:i], h.net.taps[i+1:]...)
			return true
		}
	}
	return false
}

// SendUDP transmits payload from the registered host at from to to,
// fragmenting at the path MTU. It returns an error only for local problems
// (unknown source host, oversized payload); network loss is silent, as in
// real UDP.
//
// The common case — an unfragmented datagram on a tap-free network — runs
// through the pooled buffer path: the datagram is encoded into a recycled
// buffer that returns to the pool once the receiving handler (or a drop)
// is done with it.
func (n *Network) SendUDP(from, to Addr, payload []byte) error {
	h, ok := n.hosts[from.IP]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchHost, from.IP)
	}
	dlen := UDPHeaderSize + len(payload)
	if dlen > 65535 {
		return ErrPayloadLimit
	}
	id := h.allocIPID()
	mtu := n.PathMTU(from.IP, to.IP)
	room := mtu - ipfrag.IPHeaderSize
	if room < ipfrag.FragmentUnit {
		return fmt.Errorf("fragment: %w: mtu=%d", ipfrag.ErrMTUTooSmall, mtu)
	}
	if dlen <= room && len(n.taps) == 0 {
		// Fast path: no fragmentation, no taps. Encode straight into a
		// pooled buffer; it is released after delivery.
		buf := n.getBuf(dlen)
		putUDP(buf, from, to, payload)
		n.schedule(Packet{
			Src: from.IP, Dst: to.IP, Proto: ProtoUDP, ID: id, Payload: buf,
		}, buf)
		return nil
	}
	datagram := EncodeUDP(from, to, payload)
	key := ipfrag.FlowKey{Src: [4]byte(from.IP), Dst: [4]byte(to.IP), Proto: ProtoUDP, ID: id}
	frags, err := ipfrag.Split(key, datagram, mtu)
	if err != nil {
		return fmt.Errorf("fragment: %w", err)
	}
	for _, f := range frags {
		n.transmit(Packet{
			Src: from.IP, Dst: to.IP, Proto: ProtoUDP,
			ID: id, Offset: f.Offset, More: f.More, Payload: f.Data,
		})
	}
	return nil
}

// Inject places a raw packet on the wire after delay. Off-path attackers
// use it to send spoofed datagrams and fragments: Src, ID, Offset and More
// are entirely caller-controlled.
func (n *Network) Inject(pkt Packet, delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	h := n.allocEvent()
	ev := &n.events[h]
	ev.kind = evTransmit
	ev.pkt = pkt
	n.pushEvent(h, n.nowNs+int64(delay))
}

// transmit runs taps, loss, and schedules delivery.
func (n *Network) transmit(pkt Packet) {
	if len(n.taps) == 0 {
		n.schedule(pkt, nil)
		return
	}
	pkts := []Packet{pkt}
	for _, entry := range n.taps {
		var next []Packet
		for _, p := range pkts {
			verdict, repl := entry.tap.Inspect(p)
			switch verdict {
			case Drop:
				n.dropped++
			case Replace:
				next = append(next, repl...)
			default:
				next = append(next, p)
			}
		}
		pkts = next
	}
	for _, p := range pkts {
		n.schedule(p, nil)
	}
}

// schedule applies loss and enqueues the delivery event. buf, when non-nil,
// is the pooled backing buffer of p.Payload, reclaimed after delivery (or
// immediately on loss).
func (n *Network) schedule(p Packet, buf []byte) {
	if n.loss(p.Src, p.Dst, n.rng) {
		n.dropped++
		if buf != nil {
			n.releaseBuf(buf)
		}
		return
	}
	h := n.allocEvent()
	ev := &n.events[h]
	ev.kind = evDeliver
	ev.pkt = p
	ev.buf = buf
	n.pushEvent(h, n.nowNs+int64(n.latency(p.Src, p.Dst, n.rng)))
}

// deliver hands a packet to its destination host: reassembly, UDP
// validation, then handler dispatch.
func (n *Network) deliver(pkt Packet) {
	h, ok := n.hosts[pkt.Dst]
	if !ok {
		n.dropped++
		return
	}
	// Only fragments go through the cache; a whole datagram needs none.
	datagram := pkt.Payload
	if pkt.IsFragment() {
		var done bool
		if datagram, done = h.Reassembler().Insert(n.now, pkt.Fragment()); !done {
			return // waiting for more fragments (or dropped as malformed)
		}
	}
	if pkt.Proto != ProtoUDP {
		n.dropped++
		return
	}
	srcPort, dstPort, payload, err := DecodeUDP(pkt.Src, pkt.Dst, datagram)
	if err != nil {
		n.dropped++
		return
	}
	handler, ok := h.ports[dstPort]
	if !ok {
		n.dropped++ // port unreachable: silent drop
		return
	}
	n.delivered++
	handler(n.now, Meta{
		From: Addr{IP: pkt.Src, Port: srcPort},
		To:   Addr{IP: pkt.Dst, Port: dstPort},
		IPID: pkt.ID,
	}, payload)
}

// Timer is a cancellable scheduled callback, valid by value. The zero
// Timer is inert: Cancel on it reports false.
type Timer struct {
	net *Network
	idx int32
	gen uint32
}

// Cancel prevents the timer from firing if it has not fired yet. It
// reports whether the cancellation was effective. A Timer whose event has
// already fired (and whose slab slot may have been recycled for a later
// event) safely reports false. Cancellation is a tombstone: the event
// stays queued and its slot is reclaimed when a sweep reaches it, so
// cancelling is O(1) no matter how many dead events pile up.
func (t Timer) Cancel() bool {
	if t.net == nil {
		return false
	}
	ev := &t.net.events[t.idx]
	if ev.gen != t.gen || ev.cancelled {
		return false
	}
	ev.cancelled = true
	return true
}

// After schedules fn to run after d of virtual time and returns a
// cancellable Timer. A non-positive d runs fn at the current instant (but
// still through the queue, preserving ordering).
func (n *Network) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	h := n.allocEvent()
	ev := &n.events[h]
	ev.fn = fn
	gen := ev.gen
	n.pushEvent(h, n.nowNs+int64(d))
	return Timer{net: n, idx: h, gen: gen}
}

// Key is an event's place among the events of one virtual instant: the
// sequence number the network gives every event it queues. Reserve takes
// a key ahead of time and AtUnixNano queues an event under it later, so
// the event dispatches exactly where a timer that After had armed at the
// reservation would have. A schedule that drives many clients through one
// queued event keeps each client's place in the order this way.
type Key uint64

// Reserve takes the key After would give an event queued now, without
// queuing anything.
func (n *Network) Reserve() Key {
	n.seq++
	return Key(n.seq)
}

// AtUnixNano schedules fn at the instant whenUnixNano, in NowUnixNano's
// terms, under key k from Reserve, and returns a cancellable Timer. The
// event must be queued before dispatch passes (whenUnixNano, k); an
// instant before now runs at now, as After's non-positive delays do.
func (n *Network) AtUnixNano(whenUnixNano int64, k Key, fn func()) Timer {
	whenNs := max(whenUnixNano-n.startUnix, n.nowNs)
	h := n.allocEvent()
	ev := &n.events[h]
	ev.fn = fn
	gen := ev.gen
	n.pushKeyed(h, whenNs, uint64(k))
	return Timer{net: n, idx: h, gen: gen}
}

// getBuf hands out a pooled datagram buffer of the requested size.
func (n *Network) getBuf(size int) []byte {
	if k := len(n.bufs) - 1; k >= 0 {
		b := n.bufs[k]
		n.bufs[k] = nil
		n.bufs = n.bufs[:k]
		if cap(b) >= size {
			return b[:size]
		}
	}
	c := size
	if c < 2048 {
		c = 2048
	}
	return make([]byte, size, c)
}

// releaseBuf returns a pooled buffer for reuse.
func (n *Network) releaseBuf(b []byte) {
	n.bufs = append(n.bufs, b)
}

// setNow advances the virtual clock to ns nanoseconds past the epoch.
func (n *Network) setNow(ns int64) {
	n.nowNs = ns
	n.now = n.start.Add(time.Duration(ns))
}

// Step executes the next pending event, if any, advancing virtual time to
// it. It reports whether an event was executed.
func (n *Network) Step() bool {
	h := n.popMin()
	if h < 0 {
		return false
	}
	// Copy the fields out before dispatch: the handler may schedule,
	// growing the slab and invalidating the &n.events[h] pointer.
	ev := &n.events[h]
	if ev.when > n.nowNs {
		n.setNow(ev.when)
	}
	kind, fn, pkt := ev.kind, ev.fn, ev.pkt
	switch kind {
	case evDeliver:
		n.deliver(pkt)
	case evTransmit:
		n.transmit(pkt)
	default:
		fn()
	}
	n.recycleEvent(h)
	return true
}

// Run executes all events up to and including those at time until, then
// advances virtual time to until.
func (n *Network) Run(until time.Time) { n.runUntil(int64(until.Sub(n.start))) }

// runUntil is the event pump shared by Run and FastForward: execute every
// pending event at or before untilNs (nanoseconds past the epoch), then
// advance the clock there. It returns the number of events executed.
func (n *Network) runUntil(untilNs int64) int {
	executed := 0
	for {
		whenNs, ok := n.nextEventNs()
		if !ok || whenNs > untilNs {
			break
		}
		if n.Step() {
			executed++
		}
	}
	if untilNs > n.nowNs {
		n.setNow(untilNs)
	}
	return executed
}

// RunFor executes events for d of virtual time from now.
func (n *Network) RunFor(d time.Duration) { n.Run(n.now.Add(d)) }

// nextEventNs reports when, in epoch nanoseconds, the earliest pending
// (non-cancelled) event is scheduled; ok is false when the queue is
// empty. It sweeps (and recycles) tombstoned events off the top of the
// queue; the dispatch order of the live ones is untouched.
func (n *Network) nextEventNs() (whenNs int64, ok bool) {
	it, ok := n.peekMin()
	return it.when, ok
}

// FastForward is the round-compression fast path for long-horizon
// simulation: it advances virtual time by d, executing any events that
// fall inside the window, and returns how many events ran. When the
// window holds no events — the common case between two scheduled Chronos
// sync rounds — the hop is O(1): one look at the queue's root, no
// per-interval ticking, so simulating a decade of idle wire time costs
// the same as simulating a minute. internal/shiftsim leans on this to
// sustain >100k simulated rounds per second, and internal/fleet and
// core's scenario sync loop use the returned event count to skip
// re-sampling across provably idle windows.
func (n *Network) FastForward(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	// The hop stays in epoch nanoseconds, saturating where Time.Sub
	// would clamp now+d − start to the largest Duration.
	untilNs := n.nowNs + int64(d)
	if untilNs < n.nowNs {
		untilNs = math.MaxInt64
	}
	return n.runUntil(untilNs)
}

// Drain executes events until the queue is empty or limit events have run.
// It returns the number of events executed. A zero limit means no limit.
func (n *Network) Drain(limit int) int {
	count := 0
	for n.Step() {
		count++
		if limit > 0 && count >= limit {
			break
		}
	}
	return count
}

// tapEntry pairs a tap with its removal id.
type tapEntry struct {
	id  uint64
	tap Tap
}

// event kinds: a plain callback, a packet delivery, or a deferred
// transmit (Inject). Embedding the packet in the event removes the
// per-packet closure the delivery path used to allocate.
const (
	evFn uint8 = iota
	evDeliver
	evTransmit
)

// event is a slab slot. when is nanoseconds since the network epoch — a
// single int64 comparison orders the queue instead of time.Time struct
// copies. gen is bumped on every recycle so a stale Timer cannot cancel
// the slot's next occupant; cancelled marks a tombstone awaiting sweep.
type event struct {
	when      int64
	fn        func()
	pkt       Packet
	buf       []byte // pooled payload backing, released on recycle
	kind      uint8
	cancelled bool
	gen       uint32
}

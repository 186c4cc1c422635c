package simnet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

var (
	ipA = IPv4(10, 0, 0, 1)
	ipB = IPv4(10, 0, 0, 2)
	ipC = IPv4(10, 0, 0, 3)
)

func newTestNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 99
	}
	return New(cfg)
}

func mustHost(t *testing.T, n *Network, ip IP) *Host {
	t.Helper()
	h, err := n.AddHost(ip)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

type captured struct {
	meta    Meta
	payload []byte
	at      time.Time
}

func capture(sink *[]captured) Handler {
	return func(now time.Time, meta Meta, payload []byte) {
		*sink = append(*sink, captured{meta: meta, payload: append([]byte(nil), payload...), at: now})
	}
}

func TestBasicDelivery(t *testing.T) {
	n := newTestNet(t, Config{})
	a := mustHost(t, n, ipA)
	b := mustHost(t, n, ipB)
	var got []captured
	if err := b.Listen(53, capture(&got)); err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello time")
	if err := a.SendUDP(5000, Addr{IP: ipB, Port: 53}, msg); err != nil {
		t.Fatal(err)
	}
	n.RunFor(time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d datagrams, want 1", len(got))
	}
	if !bytes.Equal(got[0].payload, msg) {
		t.Errorf("payload = %q, want %q", got[0].payload, msg)
	}
	if got[0].meta.From != (Addr{IP: ipA, Port: 5000}) {
		t.Errorf("from = %v", got[0].meta.From)
	}
	if got[0].at.Before(n.Now().Add(-time.Second)) {
		t.Error("delivery time implausible")
	}
	if n.delivered != 1 {
		t.Errorf("Delivered = %d", n.delivered)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []time.Time {
		n := New(Config{Seed: seed})
		a, _ := n.AddHost(ipA)
		b, _ := n.AddHost(ipB)
		var times []time.Time
		_ = b.Listen(53, func(now time.Time, meta Meta, payload []byte) {
			times = append(times, now)
		})
		for i := 0; i < 20; i++ {
			_ = a.SendUDP(5000, Addr{IP: ipB, Port: 53}, []byte{byte(i)})
		}
		n.RunFor(time.Second)
		return times
	}
	t1 := run(7)
	t2 := run(7)
	t3 := run(8)
	if len(t1) != 20 || len(t2) != 20 {
		t.Fatalf("deliveries: %d, %d", len(t1), len(t2))
	}
	for i := range t1 {
		if !t1[i].Equal(t2[i]) {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
	same := true
	for i := range t1 {
		if !t1[i].Equal(t3[i]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter (suspicious)")
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	n := newTestNet(t, Config{})
	a := mustHost(t, n, ipA)
	if err := a.SendUDP(1234, Addr{IP: ipC, Port: 53}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.RunFor(time.Second)
	if n.dropped != 1 {
		t.Errorf("Dropped = %d, want 1", n.dropped)
	}
}

func TestPortUnreachableDropped(t *testing.T) {
	n := newTestNet(t, Config{})
	a := mustHost(t, n, ipA)
	mustHost(t, n, ipB)
	_ = a.SendUDP(1234, Addr{IP: ipB, Port: 53}, []byte("x"))
	n.RunFor(time.Second)
	if n.delivered != 0 || n.dropped != 1 {
		t.Errorf("delivered=%d dropped=%d", n.delivered, n.dropped)
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	n := newTestNet(t, Config{})
	mustHost(t, n, ipA)
	if _, err := n.AddHost(ipA); err == nil {
		t.Error("expected ErrHostExists")
	}
}

func TestDuplicatePortRejected(t *testing.T) {
	n := newTestNet(t, Config{})
	a := mustHost(t, n, ipA)
	if err := a.Listen(53, func(time.Time, Meta, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Listen(53, func(time.Time, Meta, []byte) {}); err == nil {
		t.Error("expected ErrPortInUse")
	}
	if !a.Close(53) {
		t.Error("Close should report bound port")
	}
	if a.Close(53) {
		t.Error("second Close should report unbound")
	}
}

func TestLossModel(t *testing.T) {
	n := New(Config{
		Seed: 3,
		Loss: func(src, dst IP, rng *rand.Rand) bool { return rng.Float64() < 0.5 },
	})
	a, _ := n.AddHost(ipA)
	b, _ := n.AddHost(ipB)
	var got []captured
	_ = b.Listen(53, capture(&got))
	const sends = 400
	for i := 0; i < sends; i++ {
		_ = a.SendUDP(5000, Addr{IP: ipB, Port: 53}, []byte{1})
	}
	n.RunFor(time.Second)
	if len(got) == 0 || len(got) == sends {
		t.Fatalf("loss model ineffective: %d/%d delivered", len(got), sends)
	}
	if frac := float64(len(got)) / sends; frac < 0.35 || frac > 0.65 {
		t.Errorf("delivery fraction %v, want ~0.5", frac)
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	// Force a small path MTU so the datagram fragments, and verify the
	// receiver reassembles transparently.
	n := New(Config{Seed: 5})
	n.SetPathMTU(ipA, ipB, 548)
	a, _ := n.AddHost(ipA)
	b, _ := n.AddHost(ipB)
	var got []captured
	_ = b.Listen(53, capture(&got))
	payload := make([]byte, 1800)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := a.SendUDP(5000, Addr{IP: ipB, Port: 53}, payload); err != nil {
		t.Fatal(err)
	}
	n.RunFor(time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if !bytes.Equal(got[0].payload, payload) {
		t.Error("fragmented payload corrupted")
	}
}

func TestTapObserveAndDrop(t *testing.T) {
	n := newTestNet(t, Config{})
	a := mustHost(t, n, ipA)
	b := mustHost(t, n, ipB)
	var got []captured
	_ = b.Listen(53, capture(&got))
	seen := 0
	handle := n.AddTap(TapFunc(func(pkt Packet) Verdict {
		seen++
		if pkt.Dst == ipB {
			return Drop
		}
		return Pass
	}))
	_ = a.SendUDP(5000, Addr{IP: ipB, Port: 53}, []byte("x"))
	n.RunFor(time.Second)
	if seen != 1 {
		t.Errorf("tap saw %d packets, want 1", seen)
	}
	if len(got) != 0 {
		t.Error("dropped packet was delivered")
	}
	if !handle.Remove() {
		t.Error("Remove should report success")
	}
	if handle.Remove() {
		t.Error("second Remove should report failure")
	}
	_ = a.SendUDP(5000, Addr{IP: ipB, Port: 53}, []byte("y"))
	n.RunFor(time.Second)
	if len(got) != 1 {
		t.Error("delivery after tap removal failed")
	}
}

func TestTapRedirects(t *testing.T) {
	// A tap models a BGP hijack: it drops traffic to B and injects the
	// same datagram, re-addressed, to C.
	n := newTestNet(t, Config{})
	a := mustHost(t, n, ipA)
	b := mustHost(t, n, ipB)
	c := mustHost(t, n, ipC)
	var gotB, gotC []captured
	_ = b.Listen(53, capture(&gotB))
	_ = c.Listen(53, capture(&gotC))
	n.AddTap(TapFunc(func(pkt Packet) Verdict {
		if pkt.Dst != ipB {
			return Pass
		}
		// Re-encode for the new UDP checksum context: the tap forges a
		// fresh datagram to C rather than keeping the borrowed one.
		srcPort, dstPort, payload, err := DecodeUDP(pkt.Src, pkt.Dst, pkt.Payload)
		if err == nil {
			redirected := pkt
			redirected.Dst = ipC
			redirected.Payload = EncodeUDP(Addr{IP: pkt.Src, Port: srcPort}, Addr{IP: ipC, Port: dstPort}, payload)
			n.Inject(redirected, 0)
		}
		return Drop
	}))
	_ = a.SendUDP(5000, Addr{IP: ipB, Port: 53}, []byte("to b"))
	n.RunFor(time.Second)
	if len(gotB) != 0 {
		t.Error("hijacked packet still reached B")
	}
	if len(gotC) != 1 {
		t.Fatalf("hijacked packet not delivered to C (got %d)", len(gotC))
	}
	if string(gotC[0].payload) != "to b" {
		t.Errorf("payload = %q", gotC[0].payload)
	}
}

func TestInjectSpoofedDatagram(t *testing.T) {
	// An off-path attacker at C injects a datagram claiming to be from B.
	n := newTestNet(t, Config{})
	a := mustHost(t, n, ipA)
	mustHost(t, n, ipB)
	mustHost(t, n, ipC)
	var got []captured
	_ = a.Listen(123, capture(&got))
	spoofSrc := Addr{IP: ipB, Port: 123}
	dst := Addr{IP: ipA, Port: 123}
	datagram := EncodeUDP(spoofSrc, dst, []byte("evil"))
	n.Inject(Packet{Src: ipB, Dst: ipA, Proto: ProtoUDP, ID: 777, Payload: datagram}, 0)
	n.RunFor(time.Second)
	if len(got) != 1 {
		t.Fatalf("spoofed datagram not delivered (got %d)", len(got))
	}
	if got[0].meta.From != spoofSrc {
		t.Errorf("spoofed source = %v, want %v", got[0].meta.From, spoofSrc)
	}
	if got[0].meta.IPID != 777 {
		t.Errorf("IPID = %d, want 777", got[0].meta.IPID)
	}
}

func TestInjectedFragmentCombinesWithGenuine(t *testing.T) {
	// End-to-end defrag injection through the network layer: attacker
	// plants a spoofed tail at the victim; the genuine fragmented
	// datagram's head then completes with the attacker's tail, *iff* the
	// attacker preserved the UDP checksum.
	n := New(Config{Seed: 11})
	n.SetPathMTU(ipB, ipA, 548) // the server's path fragments
	victim, _ := n.AddHost(ipA)
	server, _ := n.AddHost(ipB)
	mustHost(t, n, ipC)
	var got []captured
	_ = victim.Listen(9999, capture(&got))

	payload := bytes.Repeat([]byte{0xAB}, 1000) // fragments into 528 + 472+8hdr
	serverAddr := Addr{IP: ipB, Port: 53}
	victimAddr := Addr{IP: ipA, Port: 9999}
	datagram := EncodeUDP(serverAddr, victimAddr, payload)

	// Attacker predicts the server's next IPID.
	id := server.nextIPID
	tail := datagram[528:] // bytes the genuine second fragment will carry
	spoofTail := append([]byte(nil), tail...)
	// Attacker rewrites all but the last two bytes, then compensates the
	// ones-complement sum in the final two bytes.
	for i := 0; i < len(spoofTail)-2; i++ {
		spoofTail[i] = 0xEE
	}
	spoofTail[len(spoofTail)-2], spoofTail[len(spoofTail)-1] = 0, 0
	wantSum := OnesComplementSum16(tail)
	haveSum := OnesComplementSum16(spoofTail)
	// Solve: haveSum + x == wantSum (mod 2^16-1, ones-complement add).
	delta := int32(wantSum) - int32(haveSum)
	if delta < 0 {
		delta += 0xFFFF
	}
	spoofTail[len(spoofTail)-2] = byte(delta >> 8)
	spoofTail[len(spoofTail)-1] = byte(delta)

	n.Inject(Packet{
		Src: ipB, Dst: ipA, Proto: ProtoUDP, ID: id,
		Offset: 528, More: false, Payload: spoofTail,
	}, 0)
	n.RunFor(50 * time.Millisecond)

	// Server now sends the genuine datagram; its head joins the planted tail.
	if err := server.SendUDP(53, victimAddr, payload); err != nil {
		t.Fatal(err)
	}
	n.RunFor(time.Second)

	if len(got) != 1 {
		t.Fatalf("got %d deliveries, want 1 (checksum-valid spoofed reassembly)", len(got))
	}
	if got[0].payload[600-8] != 0xEE { // -8: payload excludes UDP header
		t.Error("delivered payload does not contain attacker bytes")
	}
}

func TestTimers(t *testing.T) {
	n := newTestNet(t, Config{})
	var order []int
	n.After(3*time.Second, func() { order = append(order, 3) })
	n.After(time.Second, func() { order = append(order, 1) })
	tm := n.After(2*time.Second, func() { order = append(order, 2) })
	if !tm.Cancel() {
		t.Error("Cancel should succeed before firing")
	}
	if tm.Cancel() {
		t.Error("second Cancel should fail")
	}
	n.RunFor(5 * time.Second)
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Errorf("order = %v, want [1 3]", order)
	}
}

// TestReservedKeyDispatchesInPlace: an event queued under a reserved key
// dispatches exactly where a timer that After armed at the reservation
// would have, ties at one instant included. Two networks run one random
// program of timers, each armed at set-up or by an earlier timer's
// callback, on a coarse grid of delays so that many share an instant. On
// the second network some timers are reserved instead of armed and queued
// later: at the end of the arming callback, or from the callback of a
// later event, as long as that still precedes their instant. Both must
// dispatch the timers in the same order.
func TestReservedKeyDispatchesInPlace(t *testing.T) {
	delays := []time.Duration{0, time.Millisecond, time.Millisecond, 2 * time.Second, time.Hour, 3 * time.Hour}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const timers = 400
		type timer struct {
			delay    time.Duration
			children []int
			reserved bool // on the second network
		}
		prog := make([]timer, timers)
		var roots []int
		for i := range prog {
			prog[i].delay = delays[rng.Intn(len(delays))]
			prog[i].reserved = rng.Intn(3) == 0
			if p := rng.Intn(i+1) - 1; p >= 0 && rng.Intn(4) > 0 {
				prog[p].children = append(prog[p].children, i)
			} else {
				roots = append(roots, i)
			}
		}
		run := func(reserve bool) []int {
			n := New(Config{Seed: seed})
			type pending struct {
				at  int64
				key Key
				fn  func()
			}
			var order []int
			var later []pending
			var arm func(ids []int)
			fire := func(i int) func() {
				return func() {
					order = append(order, i)
					arm(prog[i].children)
				}
			}
			arm = func(ids []int) {
				for _, i := range ids {
					if reserve && prog[i].reserved {
						later = append(later, pending{n.NowUnixNano() + int64(prog[i].delay), n.Reserve(), fire(i)})
						continue
					}
					n.After(prog[i].delay, fire(i))
				}
				// Queue a reserved timer now when the next queued event
				// could pass it, otherwise at random now or later.
				next, ok := nextEventAt(n)
				kept := later[:0]
				for _, p := range later {
					if ok && next.UnixNano() < p.at && rng.Intn(2) == 0 {
						kept = append(kept, p)
						continue
					}
					n.AtUnixNano(p.at, p.key, p.fn)
				}
				later = kept
			}
			arm(roots)
			n.Drain(0)
			if len(later) != 0 {
				t.Fatalf("seed %d: %d reserved timers never queued", seed, len(later))
			}
			return order
		}
		want, got := run(false), run(true)
		if len(want) != timers {
			t.Fatalf("seed %d: %d of %d timers fired", seed, len(want), timers)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d is timer %d under a reserved key, %d when armed", seed, i, got[i], want[i])
			}
		}
	}
}

func TestRunAdvancesTime(t *testing.T) {
	n := newTestNet(t, Config{})
	start := n.Now()
	n.RunFor(time.Hour)
	if got := n.Now().Sub(start); got != time.Hour {
		t.Errorf("advanced %v, want 1h", got)
	}
}

func TestStepAndDrain(t *testing.T) {
	n := newTestNet(t, Config{})
	count := 0
	for i := 0; i < 5; i++ {
		n.After(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	if !n.Step() {
		t.Fatal("Step should execute an event")
	}
	if got := n.Drain(0); got != 4 {
		t.Errorf("Drain executed %d, want 4", got)
	}
	if n.Step() {
		t.Error("queue should be empty")
	}
	if count != 5 {
		t.Errorf("count = %d", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	n := newTestNet(t, Config{})
	var fired []string
	n.After(time.Second, func() {
		fired = append(fired, "outer")
		n.After(time.Second, func() { fired = append(fired, "inner") })
	})
	n.RunFor(3 * time.Second)
	if len(fired) != 2 || fired[0] != "outer" || fired[1] != "inner" {
		t.Errorf("fired = %v", fired)
	}
}

func TestEphemeralPorts(t *testing.T) {
	n := newTestNet(t, Config{})
	a := mustHost(t, n, ipA)
	p1 := a.EphemeralPort()
	_ = a.Listen(p1, func(time.Time, Meta, []byte) {})
	p2 := a.EphemeralPort()
	if p1 == p2 {
		t.Error("ephemeral ports collided")
	}
}

func TestIPIDSequential(t *testing.T) {
	n := newTestNet(t, Config{})
	a := mustHost(t, n, ipA)
	mustHost(t, n, ipB)
	first := a.nextIPID
	_ = a.SendUDP(1000, Addr{IP: ipB, Port: 1}, []byte("x"))
	if got := a.nextIPID; got != first+1 {
		t.Errorf("IPID advanced to %d, want %d", got, first+1)
	}
}

func TestPrefixMatch(t *testing.T) {
	base := IPv4(203, 0, 113, 0)
	if !IPv4(203, 0, 113, 55).InPrefix(base, 24) {
		t.Error("in-prefix address rejected")
	}
	if IPv4(203, 0, 114, 1).InPrefix(base, 24) {
		t.Error("out-of-prefix address accepted")
	}
	if !IPv4(8, 8, 8, 8).InPrefix(base, 0) {
		t.Error("0-bit prefix should match everything")
	}
	if !IPv4(203, 0, 113, 7).InPrefix(IPv4(203, 0, 113, 7), 32) {
		t.Error("/32 should match itself")
	}
}

func TestUDPChecksumValidation(t *testing.T) {
	src := Addr{IP: ipA, Port: 10}
	dst := Addr{IP: ipB, Port: 20}
	d := EncodeUDP(src, dst, []byte("payload"))
	if _, _, _, err := DecodeUDP(ipA, ipB, d); err != nil {
		t.Fatalf("valid datagram rejected: %v", err)
	}
	// Corrupt one payload byte.
	d[10] ^= 0xFF
	if _, _, _, err := DecodeUDP(ipA, ipB, d); err == nil {
		t.Error("corrupted datagram accepted")
	}
	// Truncated header.
	if _, _, _, err := DecodeUDP(ipA, ipB, d[:4]); err == nil {
		t.Error("truncated datagram accepted")
	}
	// Wrong pseudo-header (different source IP) must fail.
	d2 := EncodeUDP(src, dst, []byte("payload"))
	if _, _, _, err := DecodeUDP(ipC, ipB, d2); err == nil {
		t.Error("datagram with wrong pseudo-header accepted")
	}
}

func TestAddrAndPacketString(t *testing.T) {
	a := Addr{IP: ipA, Port: 53}
	if a.String() != "10.0.0.1:53" {
		t.Errorf("Addr.String = %q", a.String())
	}
	p := Packet{Src: ipA, Dst: ipB, ID: 5, Offset: 8, More: true, Payload: []byte{1}}
	if p.String() == "" || !p.IsFragment() {
		t.Error("Packet diagnostics broken")
	}
	if (Packet{}).IsFragment() {
		t.Error("whole packet misreported as fragment")
	}
}

func TestFastForwardEmptyWindow(t *testing.T) {
	n := New(Config{Seed: 9})
	start := n.Now()
	if ran := n.FastForward(365 * 24 * time.Hour); ran != 0 {
		t.Fatalf("empty fast-forward executed %d events", ran)
	}
	if got := n.Now().Sub(start); got != 365*24*time.Hour {
		t.Fatalf("fast-forward advanced %v, want one year", got)
	}
}

func TestFastForwardRunsWindowEvents(t *testing.T) {
	n := New(Config{Seed: 9})
	var fired []int
	n.After(time.Second, func() { fired = append(fired, 1) })
	n.After(3*time.Second, func() { fired = append(fired, 3) })
	n.After(10*time.Second, func() { fired = append(fired, 10) })
	cancelled := n.After(2*time.Second, func() { fired = append(fired, 2) })
	cancelled.Cancel()

	if ran := n.FastForward(5 * time.Second); ran != 2 {
		t.Fatalf("fast-forward ran %d events, want 2", ran)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [1 3]", fired)
	}
	// The out-of-window event is still pending.
	when, ok := nextEventAt(n)
	if !ok || when.Sub(n.Now()) != 5*time.Second {
		t.Fatalf("next event at %v ok=%v, want +5s", when, ok)
	}
	if ran := n.FastForward(5 * time.Second); ran != 1 {
		t.Fatal("pending event lost across fast-forwards")
	}
	if len(fired) != 3 || fired[2] != 10 {
		t.Fatalf("fired = %v, want [1 3 10]", fired)
	}
}

// TestFastForwardSaturates: a hop past the largest Duration since the
// epoch clamps there, as the time.Time arithmetic Run uses does, and
// still runs the events inside the window.
func TestFastForwardSaturates(t *testing.T) {
	n := New(Config{Seed: 9})
	start := n.Now()
	ran := false
	n.After(200*365*24*time.Hour, func() { ran = true })
	n.FastForward(time.Hour)
	n.FastForward(math.MaxInt64)
	if !ran {
		t.Fatal("the event inside the saturated window did not run")
	}
	if want := start.Add(math.MaxInt64); !n.Now().Equal(want) {
		t.Fatalf("now = %v, want the saturated %v", n.Now(), want)
	}
	if n.FastForward(time.Hour); !n.Now().Equal(start.Add(math.MaxInt64)) {
		t.Fatalf("a hop from the saturated clock moved it to %v", n.Now())
	}
}

// nextEventAt is nextEventNs as an instant.
func nextEventAt(n *Network) (time.Time, bool) {
	ns, ok := n.nextEventNs()
	if !ok {
		return time.Time{}, false
	}
	return n.start.Add(time.Duration(ns)), true
}

func TestNextEventAtSkipsCancelled(t *testing.T) {
	n := New(Config{Seed: 9})
	early := n.After(time.Second, func() {})
	n.After(2*time.Second, func() {})
	early.Cancel()
	when, ok := nextEventAt(n)
	if !ok || when.Sub(n.Now()) != 2*time.Second {
		t.Fatalf("nextEventAt = %v ok=%v, want the live +2s event", when, ok)
	}
	if _, ok := nextEventAt(New(Config{Seed: 1})); ok {
		t.Fatal("nextEventAt reported an event on an empty queue")
	}
}

// TestFastForwardMatchesRun: FastForward over a window with traffic is
// behaviourally identical to Run — same deliveries, same final clock.
func TestFastForwardMatchesRun(t *testing.T) {
	build := func() (*Network, *int) {
		n := New(Config{Seed: 77})
		a, _ := n.AddHost(IPv4(10, 0, 0, 1))
		b, _ := n.AddHost(IPv4(10, 0, 0, 2))
		got := 0
		_ = b.Listen(9, func(time.Time, Meta, []byte) { got++ })
		for i := 0; i < 5; i++ {
			i := i
			n.After(time.Duration(i)*time.Second, func() {
				_ = a.SendUDP(7, Addr{IP: b.IP(), Port: 9}, []byte{byte(i)})
			})
		}
		return n, &got
	}
	n1, got1 := build()
	n1.RunFor(time.Minute)
	n2, got2 := build()
	n2.FastForward(time.Minute)
	if *got1 != 5 || *got1 != *got2 {
		t.Fatalf("deliveries differ: run=%d fast-forward=%d", *got1, *got2)
	}
	if !n1.Now().Equal(n2.Now()) {
		t.Fatalf("clocks diverged: %v vs %v", n1.Now(), n2.Now())
	}
}

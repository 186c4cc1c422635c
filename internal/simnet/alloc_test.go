package simnet

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"chronosntp/internal/ipfrag"
)

// TestSteadyStateSendAllocFree pins down the pooled send path: once the
// event free-list and datagram buffer pool are warm, an unfragmented
// send-and-deliver cycle performs zero heap allocations, with or without
// a tap on the network. A regression here silently multiplies fleet-scale
// GC cost by millions of packets.
func TestSteadyStateSendAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		tap  bool
	}{{"no-tap", false}, {"pass-through-tap", true}} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(Config{Seed: 3})
			if tc.tap {
				n.AddTap(TapFunc(func(Packet) Verdict { return Pass }))
			}
			a, err := n.AddHost(ipA)
			if err != nil {
				t.Fatal(err)
			}
			b, err := n.AddHost(ipB)
			if err != nil {
				t.Fatal(err)
			}
			var got int
			if err := b.Listen(123, func(now time.Time, meta Meta, payload []byte) { got++ }); err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{0x5a}, 48)
			cycle := func() {
				if err := a.SendUDP(5000, Addr{IP: ipB, Port: 123}, payload); err != nil {
					t.Fatal(err)
				}
				n.RunFor(time.Second)
			}
			for i := 0; i < 32; i++ {
				cycle() // warm the event free-list and buffer pool
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("steady-state send+deliver allocates %.1f objects/op, want 0", allocs)
			}
			if got < 132 {
				t.Fatalf("only %d datagrams delivered; the cycle under test is not exercising delivery", got)
			}
		})
	}
}

// TestPooledAndTappedPathsBitIdentical drives the same seeded traffic —
// mixed unfragmented and fragmented datagrams over a lossy path — through
// two networks that differ only in having a pass-through tap installed.
// A tap that passes everything must change nothing: any divergence in
// delivered bytes, delivery times, or counters means running the tap
// chain perturbed the RNG stream or the buffers.
func TestPooledAndTappedPathsBitIdentical(t *testing.T) {
	type outcome struct {
		payloads  [][]byte
		times     []time.Time
		delivered uint64
		dropped   uint64
	}
	drive := func(withTap bool) outcome {
		n := New(Config{
			Seed: 11,
			Loss: func(src, dst IP, rng *rand.Rand) bool { return rng.Intn(10) == 0 },
		})
		if withTap {
			n.AddTap(TapFunc(func(Packet) Verdict { return Pass }))
		}
		a, err := n.AddHost(ipA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.AddHost(ipB)
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		if err := b.Listen(123, func(now time.Time, meta Meta, payload []byte) {
			out.payloads = append(out.payloads, append([]byte(nil), payload...))
			out.times = append(out.times, now)
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			// Sizes 16 and 716 stay whole; 2016 exceeds the 1480-byte
			// fragment room and splits, exercising reassembly on both runs.
			size := 16 + (i%3)*1000
			payload := bytes.Repeat([]byte{byte(i)}, size)
			if err := a.SendUDP(5000, Addr{IP: ipB, Port: 123}, payload); err != nil {
				t.Fatal(err)
			}
			n.RunFor(100 * time.Millisecond)
		}
		n.RunFor(time.Second)
		out.delivered, out.dropped = n.delivered, n.dropped
		return out
	}
	pooled := drive(false)
	tapped := drive(true)
	if pooled.delivered != tapped.delivered || pooled.dropped != tapped.dropped {
		t.Fatalf("counters diverge: pooled %d/%d, tapped %d/%d",
			pooled.delivered, pooled.dropped, tapped.delivered, tapped.dropped)
	}
	if len(pooled.payloads) != len(tapped.payloads) {
		t.Fatalf("delivery count diverges: %d vs %d", len(pooled.payloads), len(tapped.payloads))
	}
	for i := range pooled.payloads {
		if !bytes.Equal(pooled.payloads[i], tapped.payloads[i]) {
			t.Fatalf("payload %d diverges between pooled and tapped paths", i)
		}
		if !pooled.times[i].Equal(tapped.times[i]) {
			t.Fatalf("delivery time %d diverges: %v vs %v", i, pooled.times[i], tapped.times[i])
		}
	}
	if pooled.delivered == 0 || pooled.dropped == 0 {
		t.Fatalf("traffic mix degenerate (delivered=%d dropped=%d); the comparison is vacuous",
			pooled.delivered, pooled.dropped)
	}
}

// TestReassemblerBuiltOnFirstFragment: a host builds its fragment cache
// when its first fragment arrives, not before. One that receives only
// whole datagrams never holds one; Reassembler builds an empty one on a
// fresh host; and a policy set before the first fragment governs it.
func TestReassemblerBuiltOnFirstFragment(t *testing.T) {
	n := newTestNet(t, Config{})
	a, b, c := mustHost(t, n, ipA), mustHost(t, n, ipB), mustHost(t, n, ipC)
	n.SetPathMTU(ipA, ipB, 548)
	n.SetPathMTU(ipA, ipC, 548)
	var got []captured
	for _, h := range []*Host{b, c} {
		if err := h.Listen(53, capture(&got)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := a.SendUDP(5000, Addr{IP: ipB, Port: 53}, []byte("whole")); err != nil {
			t.Fatal(err)
		}
	}
	n.RunFor(time.Second)
	if len(got) != 3 {
		t.Fatalf("delivered %d whole datagrams, want 3", len(got))
	}
	if b.reasm != nil {
		t.Fatal("a host that received only whole datagrams built a fragment cache")
	}

	if r := a.Reassembler(); r == nil || r.Pending() != 0 {
		t.Fatalf("Reassembler on a fresh host = %v, want an empty cache", r)
	}

	c.SetReassemblyPolicy(ipfrag.Config{DropFragments: true})
	big := bytes.Repeat([]byte{7}, 1800)
	for _, to := range []IP{ipB, ipC} {
		if err := a.SendUDP(5000, Addr{IP: to, Port: 53}, big); err != nil {
			t.Fatal(err)
		}
	}
	n.RunFor(time.Second)
	if len(got) != 4 || got[3].meta.To.IP != ipB || !bytes.Equal(got[3].payload, big) {
		t.Fatalf("after the fragmented sends: %d datagrams delivered, want the one to %s", len(got), ipB)
	}
	if b.reasm == nil {
		t.Fatal("a host that reassembled a datagram holds no fragment cache")
	}
}

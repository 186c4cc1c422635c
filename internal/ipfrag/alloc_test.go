package ipfrag

import (
	"bytes"
	"testing"
	"time"
)

// TestReassemblySteadyStateAllocFree pins the reassembler's recycling
// guarantee: once its partial free-list and span scratch are warm,
// reassembling a complete datagram from pre-split fragments allocates
// nothing. Receivers reassemble on every delivery, so a regression here
// shows up directly in fleet-scale allocation counts.
func TestReassemblySteadyStateAllocFree(t *testing.T) {
	r := NewReassembler(Config{})
	key := FlowKey{Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}, Proto: 17, ID: 7}
	payload := bytes.Repeat([]byte{0xa5}, 4000)
	frags, err := Split(key, payload, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("payload split into %d fragments, want >=3", len(frags))
	}
	now := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	round := func() {
		for i, f := range frags {
			out, done := r.Insert(now, f)
			if done != (i == len(frags)-1) {
				t.Fatalf("fragment %d: done=%v", i, done)
			}
			if done && !bytes.Equal(out, payload) {
				t.Fatal("reassembled payload mismatch")
			}
		}
	}
	for i := 0; i < 8; i++ {
		round() // warm the partial free-list and coverage-span scratch
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state reassembly allocates %.1f objects/round, want 0", allocs)
	}
	// Completed datagrams leave stale arrivals, which the next partial's
	// eviction drops from the front of the queue instead of keeping.
	if len(r.arrived) > 1 {
		t.Fatalf("arrival queue holds %d entries after the rounds above; completed datagrams accumulate", len(r.arrived))
	}
}

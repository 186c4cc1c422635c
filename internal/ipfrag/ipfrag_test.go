package ipfrag

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var (
	testKey = FlowKey{
		Src:   [4]byte{192, 0, 2, 1},
		Dst:   [4]byte{198, 51, 100, 7},
		Proto: 17,
		ID:    0xBEEF,
	}
	t0 = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
)

func payload(n int) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(n)))
	rng.Read(b)
	return b
}

func TestSplitSmallPayloadWhole(t *testing.T) {
	p := payload(100)
	frags, err := Split(testKey, p, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 {
		t.Fatalf("got %d fragments, want 1", len(frags))
	}
	if !frags[0].IsWhole() {
		t.Error("single fragment should be whole")
	}
	if !bytes.Equal(frags[0].Data, p) {
		t.Error("payload mismatch")
	}
}

func TestSplitBoundaries(t *testing.T) {
	// MTU 548 leaves 528 payload bytes per fragment.
	p := payload(1000)
	frags, err := Split(testKey, p, 548)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Fatalf("got %d fragments, want 2", len(frags))
	}
	if frags[0].Offset != 0 || !frags[0].More {
		t.Errorf("frag0 = off %d more %v", frags[0].Offset, frags[0].More)
	}
	if len(frags[0].Data)%FragmentUnit != 0 {
		t.Errorf("non-final fragment length %d not 8-aligned", len(frags[0].Data))
	}
	if frags[1].More {
		t.Error("final fragment must clear MF")
	}
	if frags[1].Offset != len(frags[0].Data) {
		t.Errorf("frag1 offset %d, want %d", frags[1].Offset, len(frags[0].Data))
	}
}

func TestSplitMinMTU(t *testing.T) {
	// The 68-byte minimum MTU leaves 48 payload bytes per fragment.
	p := payload(200)
	frags, err := Split(testKey, p, MinMTU)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 5 { // ceil(200/48)
		t.Fatalf("got %d fragments, want 5", len(frags))
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := Split(testKey, payload(10), IPHeaderSize+4); err == nil {
		t.Error("expected ErrMTUTooSmall")
	}
	if _, err := Split(testKey, payload(maxDatagram+1), 1500); err == nil {
		t.Error("expected ErrDatagramLimit")
	}
}

func reassembleAll(t *testing.T, r *Reassembler, frags []Fragment) ([]byte, bool) {
	t.Helper()
	for i, f := range frags {
		out, done := r.Insert(t0.Add(time.Duration(i)*time.Millisecond), f)
		if done {
			return out, true
		}
	}
	return nil, false
}

func TestRoundTripInOrder(t *testing.T) {
	for _, size := range []int{1, 100, 528, 529, 1472, 1473, 5000} {
		p := payload(size)
		frags, err := Split(testKey, p, 548)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReassembler(Config{})
		got, done := reassembleAll(t, r, frags)
		if !done {
			t.Fatalf("size %d: reassembly incomplete", size)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("size %d: payload mismatch", size)
		}
		if r.Pending() != 0 {
			t.Errorf("size %d: %d partials left", size, r.Pending())
		}
	}
}

func TestRoundTripOutOfOrder(t *testing.T) {
	p := payload(3000)
	frags, err := Split(testKey, p, 548)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
	r := NewReassembler(Config{})
	got, done := reassembleAll(t, r, frags)
	if !done {
		t.Fatal("reassembly incomplete")
	}
	if !bytes.Equal(got, p) {
		t.Fatal("payload mismatch")
	}
}

func TestDuplicateFragmentsHarmless(t *testing.T) {
	p := payload(1200)
	frags, err := Split(testKey, p, 548)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(Config{})
	// Insert first fragment twice; datagram completes on the last fragment.
	if _, done := r.Insert(t0, frags[0]); done {
		t.Fatal("premature completion")
	}
	if _, done := r.Insert(t0, frags[0]); done {
		t.Fatal("premature completion on duplicate")
	}
	var got []byte
	var done bool
	for _, f := range frags[1:] {
		got, done = r.Insert(t0, f)
	}
	if !done || !bytes.Equal(got, p) {
		t.Fatal("reassembly with duplicates failed")
	}
}

func TestOverlapFirstWins(t *testing.T) {
	spoof2 := Fragment{Key: testKey, Offset: 528, More: false, Data: bytes.Repeat([]byte{0xEE}, 100)}
	first := Fragment{Key: testKey, Offset: 0, More: true, Data: bytes.Repeat([]byte{0x11}, 528)}

	r := NewReassembler(Config{Policy: FirstWins})
	// Attacker plants the spoofed tail first.
	if _, done := r.Insert(t0, spoof2); done {
		t.Fatal("tail alone should not complete")
	}
	// The genuine first fragment arrives: head + planted tail complete.
	out, done := r.Insert(t0, first)
	if !done {
		t.Fatal("expected completion with planted tail")
	}
	if out[600] != 0xEE {
		t.Errorf("tail byte = %#x, want attacker's 0xEE", out[600])
	}
	// The genuine tail arrives late and simply starts a fresh partial.
	genuine2 := Fragment{Key: testKey, Offset: 528, More: false, Data: bytes.Repeat([]byte{0xAA}, 100)}
	if _, late := r.Insert(t0, genuine2); late {
		t.Error("late genuine tail must not complete a datagram")
	}
}

func TestOverlapPoliciesResolveConflicts(t *testing.T) {
	mk := func(policy OverlapPolicy) byte {
		r := NewReassembler(Config{Policy: policy})
		a := Fragment{Key: testKey, Offset: 0, More: true, Data: bytes.Repeat([]byte{0xAA}, 16)}
		b := Fragment{Key: testKey, Offset: 8, More: false, Data: bytes.Repeat([]byte{0xBB}, 16)}
		if _, done := r.Insert(t0, a); done {
			t.Fatal("incomplete expected")
		}
		out, done := r.Insert(t0, b)
		if !done {
			t.Fatal("expected completion")
		}
		// Bytes 8..16 were claimed by both fragments.
		return out[12]
	}
	if got := mk(FirstWins); got != 0xAA {
		t.Errorf("first-wins overlap byte = %#x, want 0xAA", got)
	}
	if got := mk(LastWins); got != 0xBB {
		t.Errorf("last-wins overlap byte = %#x, want 0xBB", got)
	}
}

func TestPlantedSpoofedTailCompletesWithGenuineHead(t *testing.T) {
	// The core of the defragmentation-poisoning attack: the attacker
	// pre-plants a spoofed second fragment; when the genuine first
	// fragment arrives the reassembler combines them.
	genuine := payload(1000)
	frags, err := Split(testKey, genuine, 548)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Fatal("test needs a 2-fragment datagram")
	}
	spoofTail := Fragment{
		Key:    testKey,
		Offset: frags[1].Offset,
		More:   false,
		Data:   bytes.Repeat([]byte{0xEE}, len(frags[1].Data)),
	}
	r := NewReassembler(Config{Policy: FirstWins})
	if _, done := r.Insert(t0, spoofTail); done {
		t.Fatal("tail alone must not complete")
	}
	if !hasPending(r, testKey) {
		t.Fatal("spoofed tail should be pending")
	}
	out, done := r.Insert(t0.Add(time.Second), frags[0])
	if !done {
		t.Fatal("genuine head + spoofed tail should complete")
	}
	if !bytes.Equal(out[:528], genuine[:528]) {
		t.Error("head bytes must be genuine")
	}
	if !bytes.Equal(out[528:], spoofTail.Data) {
		t.Error("tail bytes must be the attacker's")
	}
}

// hasPending reports whether r holds a partial datagram for key.
func hasPending(r *Reassembler, key FlowKey) bool {
	_, ok := r.pending[key]
	return ok
}

func TestTimeoutEviction(t *testing.T) {
	p := payload(1000)
	frags, _ := Split(testKey, p, 548)
	r := NewReassembler(Config{Timeout: 10 * time.Second})
	r.Insert(t0, frags[0])
	if r.Pending() != 1 {
		t.Fatal("expected one partial")
	}
	// The tail arrives too late: the head has been evicted, so the
	// datagram never completes.
	if _, done := r.Insert(t0.Add(time.Minute), frags[1]); done {
		t.Fatal("expected incomplete after eviction")
	}
	if r.Pending() != 1 { // the late tail starts a fresh partial
		t.Fatalf("pending = %d, want 1", r.Pending())
	}

	// Behind an early live partial, a completed partial sits in the
	// arrival queue ahead of a later live one, and the completed flow has
	// started again since, in the recycled partial. Eviction skips the
	// stale arrival and evicts each live partial once it is older than
	// the timeout, not before.
	r = NewReassembler(Config{Timeout: 10 * time.Second})
	flow := func(id uint16) FlowKey { k := testKey; k.ID = id; return k }
	early, done, live := flow(1), flow(2), flow(3)
	head := func(k FlowKey) Fragment { return Fragment{Key: k, More: true, Data: payload(8)} }
	r.Insert(t0, head(early))
	r.Insert(t0, head(done))
	r.Insert(t0.Add(time.Second), head(live))
	if _, ok := r.Insert(t0.Add(2*time.Second), Fragment{Key: done, Offset: 8, Data: payload(8)}); !ok {
		t.Fatal("two-fragment datagram did not complete")
	}
	r.Insert(t0.Add(3*time.Second), head(done))
	for _, step := range []struct {
		at                time.Duration
		early, live, done bool
	}{
		{10 * time.Second, true, true, true},
		{10*time.Second + 500*time.Millisecond, false, true, true},
		{11 * time.Second, false, true, true}, // exactly the timeout: not older
		{11*time.Second + 1, false, false, true},
		{13 * time.Second, false, false, true},
		{13*time.Second + 1, false, false, false},
	} {
		r.Evict(t0.Add(step.at))
		if hasPending(r, early) != step.early || hasPending(r, live) != step.live || hasPending(r, done) != step.done {
			t.Fatalf("at t0+%v: early, live, restarted pending %v, %v, %v; want %v, %v, %v",
				step.at, hasPending(r, early), hasPending(r, live), hasPending(r, done),
				step.early, step.live, step.done)
		}
	}
}

func TestCacheCapacity(t *testing.T) {
	r := NewReassembler(Config{MaxDatagrams: 2})
	for id := 0; id < 5; id++ {
		k := testKey
		k.ID = uint16(id)
		r.Insert(t0, Fragment{Key: k, Offset: 0, More: true, Data: payload(8)})
	}
	if r.Pending() != 2 {
		t.Errorf("pending = %d, want capped at 2", r.Pending())
	}
}

func TestMaxFragmentsPerDatagram(t *testing.T) {
	r := NewReassembler(Config{MaxFragments: 3})
	for i := 0; i < 10; i++ {
		f := Fragment{Key: testKey, Offset: i * 8, More: true, Data: payload(8)}
		r.Insert(t0, f)
	}
	// Completion is impossible because later fragments were refused.
	if _, done := r.Insert(t0, Fragment{Key: testKey, Offset: 80, More: false, Data: payload(8)}); done {
		t.Error("should not complete past the fragment limit")
	}
}

func TestMalformedFragmentsDropped(t *testing.T) {
	r := NewReassembler(Config{})
	// Non-final fragment not 8-aligned.
	if _, done := r.Insert(t0, Fragment{Key: testKey, Offset: 0, More: true, Data: payload(13)}); done {
		t.Error("misaligned fragment should not complete")
	}
	if r.Pending() != 0 {
		t.Error("misaligned fragment should be dropped entirely")
	}
	// Negative/unaligned offset.
	if _, done := r.Insert(t0, Fragment{Key: testKey, Offset: 3, More: false, Data: payload(8)}); done {
		t.Error("unaligned offset should not complete")
	}
	// Beyond the 64k datagram limit.
	if _, done := r.Insert(t0, Fragment{Key: testKey, Offset: 65528, More: false, Data: payload(16)}); done {
		t.Error("oversized datagram should not complete")
	}
}

func TestZeroLengthPayload(t *testing.T) {
	frags, err := Split(testKey, nil, 1500)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(Config{})
	out, done := r.Insert(t0, frags[0])
	if !done || len(out) != 0 {
		t.Error("zero-length datagram should pass through")
	}
}

func TestMinFragmentFilter(t *testing.T) {
	p := payload(200)
	frags, err := Split(testKey, p, MinMTU) // 48-byte fragments
	if err != nil {
		t.Fatal(err)
	}
	// A reassembler requiring >= 128-byte fragments never completes.
	r := NewReassembler(Config{MinFragment: 128})
	if _, done := reassembleAll(t, r, frags); done {
		t.Error("tiny fragments accepted despite MinFragment")
	}
	// Accepting >= 48 works.
	r2 := NewReassembler(Config{MinFragment: 48})
	got, done := reassembleAll(t, r2, frags)
	if !done || !bytes.Equal(got, p) {
		t.Error("48-byte fragments rejected despite MinFragment=48")
	}
	// Whole datagrams always pass regardless of filters.
	r3 := NewReassembler(Config{MinFragment: 1 << 16})
	whole, _ := Split(testKey, payload(10), 1500)
	if _, done := r3.Insert(t0, whole[0]); !done {
		t.Error("whole datagram blocked by MinFragment")
	}
}

func TestDropFragments(t *testing.T) {
	p := payload(200)
	frags, _ := Split(testKey, p, 548)
	r := NewReassembler(Config{DropFragments: true})
	// 200 bytes at MTU 548 is a single whole datagram: passes.
	if _, done := r.Insert(t0, frags[0]); !done {
		t.Error("whole datagram dropped")
	}
	big, _ := Split(testKey, payload(1000), 548)
	if _, done := reassembleAll(t, NewReassembler(Config{DropFragments: true}), big); done {
		t.Error("fragments accepted despite DropFragments")
	}
}

func TestOverlapPolicyString(t *testing.T) {
	if FirstWins.String() != "first-wins" || LastWins.String() != "last-wins" {
		t.Error("policy String broken")
	}
	if OverlapPolicy(9).String() == "" {
		t.Error("unknown policy String empty")
	}
}

// Property: Split followed by in-order reassembly is the identity, for any
// payload and any workable MTU.
func TestSplitReassembleIdentityProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, mtuRaw uint16) bool {
		size := int(sizeRaw)%8000 + 1
		mtu := int(mtuRaw)%1500 + MinMTU
		rng := rand.New(rand.NewSource(seed))
		p := make([]byte, size)
		rng.Read(p)
		frags, err := Split(testKey, p, mtu)
		if err != nil {
			return false
		}
		r := NewReassembler(Config{MaxFragments: 4096, MaxDatagrams: 4})
		for i, fr := range frags {
			out, done := r.Insert(t0, fr)
			if done {
				return i == len(frags)-1 && bytes.Equal(out, p)
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: reassembly is order-independent when fragments do not overlap.
func TestOrderIndependenceProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		size := int(sizeRaw)%4000 + 600
		rng := rand.New(rand.NewSource(seed))
		p := make([]byte, size)
		rng.Read(p)
		frags, err := Split(testKey, p, 548)
		if err != nil {
			return false
		}
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		r := NewReassembler(Config{MaxFragments: 4096})
		for _, fr := range frags {
			if out, done := r.Insert(t0, fr); done {
				return bytes.Equal(out, p)
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

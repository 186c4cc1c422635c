package shiftsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// script is a rand.Source that replays vals, then returns 0, which every
// bounded draw keeps, so no draw loops forever on a script. calls counts
// the Int63 calls made.
type script struct {
	vals  []int64
	calls int
}

func (s *script) Int63() int64 {
	s.calls++
	if s.calls <= len(s.vals) {
		return s.vals[s.calls-1]
	}
	return 0
}

func (s *script) Seed(int64) {}

// checkDraws runs draw and math/rand's own bounded draw (ref) against two
// copies of the same script until both have consumed it, and fails on the
// first value or Int63 call count that differs.
func checkDraws(t testing.TB, name string, vals []int64, draw, ref func(*rand.Rand) int64) {
	t.Helper()
	a, b := &script{vals: vals}, &script{vals: vals}
	ra, rb := rand.New(a), rand.New(b)
	for k := 0; a.calls < len(vals) || b.calls < len(vals); k++ {
		got, want := draw(ra), ref(rb)
		if got != want || a.calls != b.calls {
			t.Fatalf("%s, draw %d: got %d after %d Int63 calls, math/rand %d after %d",
				name, k, got, a.calls, want, b.calls)
		}
	}
}

// intnScript is a script for Intn(n): Int31 values at and one above
// Int31n's rejection threshold, at 0, 1, multiples of n and their
// neighbours, and the largest Int31, each with junk in the low 32 bits
// Int31 discards, then a seeded random tail.
func intnScript(n int, rng *rand.Rand) []int64 {
	thresh := int64(math.MaxInt32 - (1<<31)%uint32(n))
	v31 := []int64{thresh, thresh + 1, thresh - 1, thresh + 1, 0, 1, math.MaxInt32}
	for _, k := range []int64{1, 2, 3, thresh / int64(n)} {
		v31 = append(v31, k*int64(n)-1, k*int64(n), k*int64(n)+1)
	}
	var out []int64
	for _, x := range v31 {
		if x >= 0 && x <= math.MaxInt32 {
			out = append(out, x<<32|int64(rng.Uint32()))
		}
	}
	for i := 0; i < 64; i++ {
		out = append(out, rng.Int63())
	}
	return out
}

// jitterScript is the same for Int63n(jitterBound), whose values are
// whole Int63 outputs.
func jitterScript(rng *rand.Rand) []int64 {
	thresh, b := int64(jitterMax), int64(jitterBound)
	out := []int64{thresh, thresh + 1, thresh - 1, math.MaxInt64, 0, 1, b - 1, b, b + 1, thresh - thresh%b, thresh - thresh%b - 1}
	for i := 0; i < 64; i++ {
		out = append(out, rng.Int63())
	}
	return out
}

// TestDrawsMatchMathRand holds the engine's division-free draws to
// math/rand: intn.draw to Intn and drawJitter to Int63n(2·jitter), value
// for value and Int63 call for Int63 call. A real stream almost never
// reaches a rejection (at n ≤ 133 at most 6·10⁻⁸ of draws, at the jitter
// bound about 3·10⁻¹³), so the scripts feed every threshold directly.
func TestDrawsMatchMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := []int{1, 2, 3, 128, 1 << 30, 1<<30 + 1, math.MaxInt32 - 1, math.MaxInt32}
	for n := 119; n <= 133; n++ {
		bounds = append(bounds, n)
	}
	for _, n := range bounds {
		d := newIntn(n)
		checkDraws(t, fmt.Sprintf("Intn(%d)", n), intnScript(n, rng),
			func(r *rand.Rand) int64 { return int64(d.draw(r)) },
			func(r *rand.Rand) int64 { return int64(r.Intn(n)) })
	}
	checkDraws(t, "Int63n(2·jitter)", jitterScript(rng),
		func(r *rand.Rand) int64 { return int64(drawJitter(r)) },
		func(r *rand.Rand) int64 { return r.Int63n(int64(2 * jitter)) })
}

// FuzzBoundedDraw: for any bound in [1, 2^31−1] and any Int63 stream
// (eight bytes a value, then zeros), intn.draw returns Intn's values from
// the same calls, and drawJitter Int63n(2·jitter)'s.
func FuzzBoundedDraw(f *testing.F) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 128, 119, 133, 1<<30 + 1, math.MaxInt32} {
		f.Add(uint32(n-1), encodeStream(intnScript(n, rng)))
	}
	f.Add(uint32(2*jitter-1), encodeStream(jitterScript(rng)))
	f.Fuzz(func(t *testing.T, bound uint32, stream []byte) {
		n := int(bound%math.MaxInt32) + 1
		var vals []int64
		for ; len(stream) >= 8; stream = stream[8:] {
			vals = append(vals, int64(binary.LittleEndian.Uint64(stream)&math.MaxInt64))
		}
		d := newIntn(n)
		checkDraws(t, "Intn", vals,
			func(r *rand.Rand) int64 { return int64(d.draw(r)) },
			func(r *rand.Rand) int64 { return int64(r.Intn(n)) })
		checkDraws(t, "Int63n(2·jitter)", vals,
			func(r *rand.Rand) int64 { return int64(drawJitter(r)) },
			func(r *rand.Rand) int64 { return r.Int63n(int64(2 * jitter)) })
	})
}

func encodeStream(vals []int64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

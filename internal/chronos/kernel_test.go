package chronos

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// trimmed is the sort-based reference the selection kernel replaced: it
// sorts xs in place and returns the subslice with trim elements removed
// from each end.
func trimmed(xs []time.Duration, trim int) []time.Duration {
	slices.Sort(xs)
	if trim < 0 || len(xs) <= 2*trim {
		return xs
	}
	return xs[trim : len(xs)-trim]
}

// referenceEvaluate is Rule.Evaluate's C1/C2 path computed the sort-based
// way: sort, trim, read the survivors' ends and mean.
func referenceEvaluate(r Rule, offsets []time.Duration) Verdict {
	if len(offsets) < r.minReplies || len(offsets) <= 2*r.trim {
		return Verdict{Reason: FailInsufficient}
	}
	surv := trimmed(offsets, r.trim)
	span := surv[len(surv)-1] - surv[0]
	avg := mean(surv)
	switch {
	case span > 2*Omega:
		return Verdict{Update: avg, Span: span, Reason: FailC1}
	case absDur(avg) > ErrBound:
		return Verdict{Update: avg, Span: span, Reason: FailC2}
	default:
		return Verdict{OK: true, Update: avg, Span: span}
	}
}

// referencePanicUpdate is Rule.PanicUpdate computed the sort-based way.
func referencePanicUpdate(offsets []time.Duration) (time.Duration, bool) {
	if len(offsets) < 3 {
		return 0, false
	}
	return mean(trimmed(offsets, Trim(len(offsets)))), true
}

// kernelShapes generates one input of length n per named shape: random
// spread around zero, the poisoned panic sweep's block of identical
// attacker samples after a spread of honest ones (89 of 133 at the
// paper's pool), all equal, sorted, reverse-sorted, values near ±2^62
// whose sums wrap around int64, and the int64 extremes (the largest is
// also the sorting network's padding).
func kernelShapes(rng *rand.Rand, n int) []namedInput {
	spread := func(i int) time.Duration {
		return time.Duration(rng.Int63n(int64(80*time.Millisecond))) - 40*time.Millisecond
	}
	gen := func(f func(i int) time.Duration) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	step := time.Duration(rng.Int63n(int64(30 * time.Millisecond)))
	sorted := gen(spread)
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	const big = time.Duration(1) << 62
	return []namedInput{
		{"spread", gen(spread)},
		{"poisoned-sweep", gen(func(i int) time.Duration {
			if i < n-(2*n+2)/3 {
				return spread(i)
			}
			return step
		})},
		{"all-equal", gen(func(int) time.Duration { return step })},
		{"sorted", sorted},
		{"reversed", reversed},
		{"huge", gen(func(int) time.Duration {
			v := big - time.Duration(rng.Int63n(1<<20))
			if rng.Intn(2) == 0 {
				return -v
			}
			return v
		})},
		{"huge-positive", gen(func(int) time.Duration { return big + time.Duration(rng.Int63n(1<<40)) })},
		{"extremes", gen(func(int) time.Duration {
			return []time.Duration{math.MinInt64, -1, 0, 1, math.MaxInt64}[rng.Intn(5)]
		})},
	}
}

type namedInput struct {
	name string
	xs   []time.Duration
}

// TestKernelMatchesSortReference holds Evaluate and PanicUpdate to the
// sort-based reference on every verdict field, for n from 0 to 400 and
// trims of 0, n/3, and n/2 or more, across kernelShapes. It also checks
// that selection leaves a permutation of the input whose survivor block
// is the reference's survivor multiset.
func TestKernelMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 0; n <= 400; n++ {
		for _, shape := range kernelShapes(rng, n) {
			name, in := shape.name, shape.xs
			for _, trim := range []int{0, n / 3, n / 2, n/2 + 1 + rng.Intn(3)} {
				rule := Rule{trim: trim, minReplies: rng.Intn(3)}
				a, b := slices.Clone(in), slices.Clone(in)
				if got, want := rule.Evaluate(a), referenceEvaluate(rule, b); got != want {
					t.Fatalf("n=%d trim=%d %s: Evaluate = %+v, reference %+v", n, trim, name, got, want)
				}
				slices.Sort(a)
				if slices.Sort(b); !slices.Equal(a, b) {
					t.Fatalf("n=%d trim=%d %s: Evaluate did not leave a permutation of its input", n, trim, name)
				}

				a, b = slices.Clone(in), slices.Clone(in)
				surv, ref := slices.Clone(survivors(a, trim)), trimmed(b, trim)
				slices.Sort(surv)
				if !slices.Equal(surv, ref) {
					t.Fatalf("n=%d trim=%d %s: survivor multiset %v, reference %v", n, trim, name, surv, ref)
				}
			}
			a, b := slices.Clone(in), slices.Clone(in)
			panicRule := NewRule(Config{})
			gu, gok := panicRule.PanicUpdate(a)
			wu, wok := referencePanicUpdate(b)
			if gu != wu || gok != wok {
				t.Fatalf("n=%d %s: PanicUpdate = %v, %v, reference %v, %v", n, name, gu, gok, wu, wok)
			}
		}
	}
}

// TestKernelAllocationFree: the C1/C2 attempt and the panic sweep run
// entirely in the caller's buffer.
func TestKernelAllocationFree(t *testing.T) {
	rule := NewRule(Config{})
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{15, 133} {
		in := kernelShapes(rng, n)[1].xs // poisoned-sweep
		buf := make([]time.Duration, n)
		paths := map[string]func(){
			"evaluate": func() { rule.Evaluate(buf) },
			"panic":    func() { rule.PanicUpdate(buf) },
		}
		for name, path := range paths {
			allocs := testing.AllocsPerRun(100, func() {
				copy(buf, in)
				path()
			})
			if allocs != 0 {
				t.Errorf("n=%d %s: %v allocs/op, want 0", n, name, allocs)
			}
		}
	}
}

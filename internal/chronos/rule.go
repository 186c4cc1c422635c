package chronos

import (
	"math"
	"math/rand"
	"slices"
	"time"
)

// This file isolates the Chronos clock-update *decision procedure* from the
// packet plumbing: Rule is the pure per-attempt acceptance test (trim, C1,
// C2) and panic-mode computation, Round is the re-sample/panic escalation
// ladder and its counters. The simnet Client, the real-socket
// wirenet.Syncer and the long-horizon shift engine (internal/shiftsim)
// all drive a Round — so "the round loop the closed-form bound models"
// and "the round loop the simulation runs" are one implementation.

// FailReason classifies why one sampling attempt was rejected.
type FailReason int

// Attempt failure reasons.
const (
	FailNone         FailReason = iota
	FailInsufficient            // fewer than 2m/3 replies, or too few to trim
	FailC1                      // survivors spread over more than 2ω
	FailC2                      // |survivor average| exceeds ErrBound
	FailQuorum                  // largest agreeing cluster smaller than MinSources
)

// String implements fmt.Stringer.
func (r FailReason) String() string {
	switch r {
	case FailNone:
		return "ok"
	case FailInsufficient:
		return "insufficient-replies"
	case FailC1:
		return "c1-spread"
	case FailC2:
		return "c2-errbound"
	case FailQuorum:
		return "quorum-insufficient"
	default:
		return "FailReason(?)"
	}
}

// Verdict is the outcome of applying the update rule to one attempt's
// offset samples.
type Verdict struct {
	OK     bool          // both C1 and C2 hold; Update may be applied
	Update time.Duration // survivor average (the clock correction)
	Span   time.Duration // survivor max − min (the C1 statistic)
	Reason FailReason    // FailNone when OK
}

// The NDSS'18 parameters of the update rule.
const (
	Omega    = 25 * time.Millisecond // ω: C1 accepts survivors within 2ω of each other
	ErrBound = 30 * time.Millisecond // C2 accepts a survivor average within ErrBound
	Retries  = 2                     // K: re-samples before panic mode
)

// Rule is the pure Chronos per-attempt decision procedure, detached from
// any network. Construct it with NewRule so the NDSS'18 defaults apply.
type Rule struct {
	cfg Config
	// Resolved by NewRule: d = m/3 samples trimmed from each end, the
	// 2m/3 reply floor, and K.
	trim, minReplies, retries int
}

// NewRule builds a Rule with cfg's defaults resolved.
func NewRule(cfg Config) Rule {
	cfg = cfg.withDefaults()
	m := cfg.SampleSize
	return Rule{cfg: cfg, trim: Trim(m), minReplies: 2 * m / 3, retries: Retries}
}

// Config returns the effective configuration (defaults applied).
func (r Rule) Config() Config { return r.cfg }

// CaptureNeed returns m − d: the number of attacker samples from which
// every trimmed-mean survivor is attacker-controlled (the hypergeometric
// threshold the closed-form analysis uses).
func (r Rule) CaptureNeed() int { return r.cfg.SampleSize - r.trim }

// SampleIndices draws one round's sample: min(SampleSize, poolSize)
// distinct pool indices chosen uniformly at random. Both the simnet
// chronos.Client and the real-socket wirenet.Syncer draw through this
// method, so for one seed the two consume the RNG identically and sample
// the same server sequence — the property the transport-conformance
// tests pin.
func (r Rule) SampleIndices(rng *rand.Rand, poolSize int) []int {
	m := r.cfg.SampleSize
	if m > poolSize {
		m = poolSize
	}
	return rng.Perm(poolSize)[:m]
}

// Evaluate applies the Chronos update rule to one attempt's samples:
// discard attempts with too few replies, trim d from each end, then accept
// the survivors' average iff (C1) they lie within 2ω of each other and
// (C2) the average is within ErrBound of the local clock. offsets is
// reordered in place.
func (r *Rule) Evaluate(offsets []time.Duration) Verdict {
	if r.cfg.MinSources > 0 {
		return r.evaluateQuorum(offsets)
	}
	if len(offsets) < r.minReplies || len(offsets) <= 2*r.trim {
		return Verdict{Reason: FailInsufficient}
	}
	surv := survivors(offsets, r.trim)
	lo, hi, sum := blockStats(surv)
	span := hi - lo
	avg := sum / time.Duration(len(surv))
	switch {
	case span > 2*Omega:
		return Verdict{Update: avg, Span: span, Reason: FailC1}
	case absDur(avg) > ErrBound:
		return Verdict{Update: avg, Span: span, Reason: FailC2}
	default:
		return Verdict{OK: true, Update: avg, Span: span}
	}
}

// evaluateQuorum is the chrony-style minsources acceptance test E11
// contrasts against C1/C2: sort the samples, find the largest cluster
// agreeing within 2ω, and accept its average iff it holds at least
// MinSources members. There is no trim and no absolute error bound —
// an attacker who musters MinSources agreeing sources wins outright,
// while a KoD-denial attacker who starves the client below MinSources
// replies wins the other way. Span reports the winning cluster's
// spread. The cluster scan needs the samples in order, so this path
// sorts.
func (r *Rule) evaluateQuorum(offsets []time.Duration) Verdict {
	if len(offsets) < r.cfg.MinSources {
		return Verdict{Reason: FailInsufficient}
	}
	sorted := offsets
	slices.Sort(sorted)
	best, bestLo := 1, 0
	for lo, hi := 0, 0; hi < len(sorted); hi++ {
		for sorted[hi]-sorted[lo] > 2*Omega {
			lo++
		}
		if hi-lo+1 > best {
			best, bestLo = hi-lo+1, lo
		}
	}
	cluster := sorted[bestLo : bestLo+best]
	avg := mean(cluster)
	span := cluster[len(cluster)-1] - cluster[0]
	if best < r.cfg.MinSources {
		return Verdict{Update: avg, Span: span, Reason: FailQuorum}
	}
	return Verdict{OK: true, Update: avg, Span: span}
}

// Trim returns how many of n samples the rule discards from each end:
// ⌊n/3⌋, both the d of an attempt of m samples and the top and bottom
// thirds of a panic-mode sweep.
func Trim(n int) int { return n / 3 }

// PanicUpdate computes the panic-mode correction from a full-pool sweep:
// trim the top and bottom thirds and trust the middle third's average,
// with no C1/C2 checks. ok is false when fewer than 3 replies arrived
// (nothing survives the trim). offsets is reordered in place.
func (r *Rule) PanicUpdate(offsets []time.Duration) (update time.Duration, ok bool) {
	if len(offsets) < 3 {
		return 0, false
	}
	return mean(survivors(offsets, Trim(len(offsets)))), true
}

// survivors reorders xs in place so that xs[trim:len(xs)-trim] holds the
// samples of rank trim … len(xs)−trim−1, in no particular order, and
// returns that block: exactly the multiset a full sort would leave
// between the trims. Every statistic the rule reads off the block —
// minimum, maximum, and an int64 sum, which wraps the same way whatever
// the order of its terms — is therefore bit-identical to the sort-based
// trimmed mean's. A trim of zero or less, or one that would leave
// nothing, keeps every sample.
func survivors(xs []time.Duration, trim int) []time.Duration {
	n := len(xs)
	if trim <= 0 || n <= 2*trim {
		return xs
	}
	selectRanks(xs, trim, n-trim-1)
	return xs[trim : n-trim]
}

// smallSelect is the window size at which selection stops partitioning
// and finishes with sortSmall's sorting network. Chronos' m = 15 sample
// is a single such window.
const smallSelect = 16

// selectRanks reorders xs so that, for k = k1 and k = k2 (k1 ≤ k2), xs[k]
// is the element of rank k with xs[:k] ≤ xs[k] ≤ xs[k+1:]. It is a
// quickselect over a three-way partition: samples equal to the pivot
// collect in one middle block, so a poisoned panic sweep's 89 identical
// attacker replies settle both ranks in a single linear pass rather than
// being partitioned again and again.
func selectRanks(xs []time.Duration, k1, k2 int) {
	lo, hi := 0, len(xs)
	for hi-lo > smallSelect {
		lt, gt := partition3(xs[lo:hi])
		lt, gt = lo+lt, lo+gt
		switch {
		case k2 < lt:
			hi = lt
		case k1 >= gt:
			lo = gt
		default:
			// The ranks straddle the equal block or sit inside it: what is
			// left is one single-rank search on each side at most.
			if k1 < lt {
				selectRanks(xs[lo:lt], k1-lo, k1-lo)
			}
			if k2 >= gt {
				selectRanks(xs[gt:hi], k2-gt, k2-gt)
			}
			return
		}
	}
	sortSmall(xs[lo:hi])
}

// partition3 partitions xs around the median of its first, middle and
// last elements into xs[:lt] < pivot, xs[lt:gt] == pivot and
// xs[gt:] > pivot. The equal block is never empty, so every call shrinks
// the selection window.
func partition3(xs []time.Duration) (lt, gt int) {
	a, b, c := xs[0], xs[len(xs)/2], xs[len(xs)-1]
	p := max(min(a, b), min(max(a, b), c))
	lt, gt = 0, len(xs)
	for i := 0; i < gt; {
		switch x := xs[i]; {
		case x < p:
			xs[i], xs[lt] = xs[lt], x
			lt++
			i++
		case x > p:
			gt--
			xs[i], xs[gt] = xs[gt], x
		default:
			i++
		}
	}
	return lt, gt
}

// sortSmall sorts a window of at most smallSelect samples with Batcher's
// odd–even merge sorting network for 16 inputs: 63 compare-exchanges in
// a fixed order, each a min and a max that compile to conditional moves
// on registers, so no branch depends on the data. The window loads
// straight into the network's locals and is stored straight back. A
// shorter window is padded with the largest Duration, which sorts after
// every sample (a sample equal to it is indistinguishable from the
// padding), so only the window's own slots are stored.
func sortSmall(xs []time.Duration) {
	n := len(xs)
	load := func(i int) time.Duration {
		if i < n {
			return xs[i]
		}
		return math.MaxInt64
	}
	x0, x1, x2, x3 := load(0), load(1), load(2), load(3)
	x4, x5, x6, x7 := load(4), load(5), load(6), load(7)
	x8, x9, x10, x11 := load(8), load(9), load(10), load(11)
	x12, x13, x14, x15 := load(12), load(13), load(14), load(15)

	// merge runs of 1 into runs of 2
	x0, x1 = min(x0, x1), max(x0, x1)
	x2, x3 = min(x2, x3), max(x2, x3)
	x4, x5 = min(x4, x5), max(x4, x5)
	x6, x7 = min(x6, x7), max(x6, x7)
	x8, x9 = min(x8, x9), max(x8, x9)
	x10, x11 = min(x10, x11), max(x10, x11)
	x12, x13 = min(x12, x13), max(x12, x13)
	x14, x15 = min(x14, x15), max(x14, x15)

	// merge runs of 2 into runs of 4
	x0, x2 = min(x0, x2), max(x0, x2)
	x1, x3 = min(x1, x3), max(x1, x3)
	x1, x2 = min(x1, x2), max(x1, x2)
	x4, x6 = min(x4, x6), max(x4, x6)
	x5, x7 = min(x5, x7), max(x5, x7)
	x5, x6 = min(x5, x6), max(x5, x6)
	x8, x10 = min(x8, x10), max(x8, x10)
	x9, x11 = min(x9, x11), max(x9, x11)
	x9, x10 = min(x9, x10), max(x9, x10)
	x12, x14 = min(x12, x14), max(x12, x14)
	x13, x15 = min(x13, x15), max(x13, x15)
	x13, x14 = min(x13, x14), max(x13, x14)

	// merge runs of 4 into runs of 8
	x0, x4 = min(x0, x4), max(x0, x4)
	x2, x6 = min(x2, x6), max(x2, x6)
	x2, x4 = min(x2, x4), max(x2, x4)
	x1, x5 = min(x1, x5), max(x1, x5)
	x3, x7 = min(x3, x7), max(x3, x7)
	x3, x5 = min(x3, x5), max(x3, x5)
	x1, x2 = min(x1, x2), max(x1, x2)
	x3, x4 = min(x3, x4), max(x3, x4)
	x5, x6 = min(x5, x6), max(x5, x6)
	x8, x12 = min(x8, x12), max(x8, x12)
	x10, x14 = min(x10, x14), max(x10, x14)
	x10, x12 = min(x10, x12), max(x10, x12)
	x9, x13 = min(x9, x13), max(x9, x13)
	x11, x15 = min(x11, x15), max(x11, x15)
	x11, x13 = min(x11, x13), max(x11, x13)
	x9, x10 = min(x9, x10), max(x9, x10)
	x11, x12 = min(x11, x12), max(x11, x12)
	x13, x14 = min(x13, x14), max(x13, x14)

	// merge runs of 8 into runs of 16
	x0, x8 = min(x0, x8), max(x0, x8)
	x4, x12 = min(x4, x12), max(x4, x12)
	x4, x8 = min(x4, x8), max(x4, x8)
	x2, x10 = min(x2, x10), max(x2, x10)
	x6, x14 = min(x6, x14), max(x6, x14)
	x6, x10 = min(x6, x10), max(x6, x10)
	x2, x4 = min(x2, x4), max(x2, x4)
	x6, x8 = min(x6, x8), max(x6, x8)
	x10, x12 = min(x10, x12), max(x10, x12)
	x1, x9 = min(x1, x9), max(x1, x9)
	x5, x13 = min(x5, x13), max(x5, x13)
	x5, x9 = min(x5, x9), max(x5, x9)
	x3, x11 = min(x3, x11), max(x3, x11)
	x7, x15 = min(x7, x15), max(x7, x15)
	x7, x11 = min(x7, x11), max(x7, x11)
	x3, x5 = min(x3, x5), max(x3, x5)
	x7, x9 = min(x7, x9), max(x7, x9)
	x11, x13 = min(x11, x13), max(x11, x13)
	x1, x2 = min(x1, x2), max(x1, x2)
	x3, x4 = min(x3, x4), max(x3, x4)
	x5, x6 = min(x5, x6), max(x5, x6)
	x7, x8 = min(x7, x8), max(x7, x8)
	x9, x10 = min(x9, x10), max(x9, x10)
	x11, x12 = min(x11, x12), max(x11, x12)
	x13, x14 = min(x13, x14), max(x13, x14)

	store := func(i int, x time.Duration) {
		if i < n {
			xs[i] = x
		}
	}
	store(0, x0)
	store(1, x1)
	store(2, x2)
	store(3, x3)
	store(4, x4)
	store(5, x5)
	store(6, x6)
	store(7, x7)
	store(8, x8)
	store(9, x9)
	store(10, x10)
	store(11, x11)
	store(12, x12)
	store(13, x13)
	store(14, x14)
	store(15, x15)
}

// blockStats returns the minimum, maximum and sum of a non-empty block.
func blockStats(xs []time.Duration) (lo, hi, sum time.Duration) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
		sum += x
	}
	return lo, hi, sum
}

// Action is what Round.Offer tells its caller to do next.
type Action int

// Round actions.
const (
	Apply    Action = iota // step the clock by Verdict.Update; the round is over
	Resample               // re-sample m servers and offer their offsets
	Panic                  // query the whole pool and offer the sweep's offsets
	Skip                   // the panic sweep had too few replies; the round is over
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Apply:
		return "apply"
	case Resample:
		return "resample"
	case Panic:
		return "panic"
	case Skip:
		return "skip"
	default:
		return "Action(?)"
	}
}

// Round is one sync round's decision procedure, the only one the packet
// client, wirenet.Syncer and the shiftsim engine run: they gather
// offsets, Offer them, and act on the returned Action. Per the NDSS'18
// spec the client re-samples up to K (= Retries) times, so panic
// mode triggers on the (K+1)-th consecutive failed attempt of a round.
type Round struct {
	rule     *Rule
	st       *Stats
	failures int
	panicked bool
}

// Begin starts a sync round whose counters (Rounds, Updates, Resamples,
// Panics, PanicUpdates, IncompleteRound) accumulate in st.
func (r *Rule) Begin(st *Stats) Round {
	st.Rounds++
	return Round{rule: r, st: st}
}

// Offer decides on one batch of offsets: an attempt's samples, judged by
// Evaluate, until the round has escalated to panic mode, after which the
// batch is the full-pool sweep, judged by PanicUpdate. The Verdict of a
// sweep is OK with the panic update, or FailInsufficient with Skip.
// offsets is reordered in place.
func (rd *Round) Offer(offsets []time.Duration) (Verdict, Action) {
	st := rd.st
	if rd.panicked {
		up, ok := rd.rule.PanicUpdate(offsets)
		if !ok {
			st.IncompleteRound++
			return Verdict{Reason: FailInsufficient}, Skip
		}
		st.PanicUpdates++
		return Verdict{OK: true, Update: up}, Apply
	}
	v := rd.rule.Evaluate(offsets)
	switch {
	case v.OK:
		st.Updates++
		return v, Apply
	case v.Reason == FailInsufficient:
		st.IncompleteRound++
	}
	rd.failures++
	if rd.failures <= rd.rule.retries {
		st.Resamples++
		return v, Resample
	}
	st.Panics++
	rd.panicked = true
	return v, Panic
}

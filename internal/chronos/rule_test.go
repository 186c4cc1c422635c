package chronos

import (
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/simnet"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestRoundOffer walks Round.Offer through every action and every
// counter it keeps. It encodes the NDSS'18 escalation spec: the client
// re-samples up to K times, so panic mode triggers on the
// (K+1)-th consecutive failed attempt — never earlier — and a success on
// any attempt before that applies the update.
func TestRoundOffer(t *testing.T) {
	fill := func(n int, v time.Duration) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	var (
		good  = fill(9, ms(3))
		c1    = []time.Duration{-time.Second, -time.Second, -time.Second, ms(-30), 0, ms(30), time.Second, time.Second, time.Second}
		c2    = fill(9, ms(100))
		short = fill(5, 0)               // under the 2m/3 = 6 reply floor
		sweep = fill(30, 10*time.Second) // a full-pool panic sweep of liars
		bare  = fill(2, ms(1))           // a sweep too small to trim by thirds
	)
	cases := []struct {
		name       string
		retries    int
		offers     [][]time.Duration
		actions    []Action
		lastUpdate time.Duration
		want       Stats
	}{
		{"apply first attempt", 2, [][]time.Duration{good},
			[]Action{Apply}, ms(3), Stats{Updates: 1}},
		{"success before panic", 2, [][]time.Duration{c1, c2, good},
			[]Action{Resample, Resample, Apply}, ms(3), Stats{Updates: 1, Resamples: 2}},
		{"insufficient attempt counts incomplete", 2, [][]time.Duration{short, good},
			[]Action{Resample, Apply}, ms(3), Stats{Updates: 1, Resamples: 1, IncompleteRound: 1}},
		{"panics after exactly K=1 resamples", 1, [][]time.Duration{c2, c2, sweep},
			[]Action{Resample, Panic, Apply}, 10 * time.Second, Stats{Resamples: 1, Panics: 1, PanicUpdates: 1}},
		{"panics after exactly K=5 resamples", 5, [][]time.Duration{c2, c2, c1, c2, c2, c2, sweep},
			[]Action{Resample, Resample, Resample, Resample, Resample, Panic, Apply}, 10 * time.Second,
			Stats{Resamples: 5, Panics: 1, PanicUpdates: 1}},
		{"panic sweep under 3 replies skips", 2, [][]time.Duration{short, c1, short, bare},
			[]Action{Resample, Resample, Panic, Skip}, 0, Stats{Resamples: 2, Panics: 1, IncompleteRound: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rule := NewRule(Config{SampleSize: 9})
			rule.retries = tc.retries
			var st Stats
			rd := rule.Begin(&st)
			var v Verdict
			for i, offsets := range tc.offers {
				var act Action
				v, act = rd.Offer(append([]time.Duration(nil), offsets...))
				if act != tc.actions[i] {
					t.Fatalf("offer %d: action %v, want %v", i, act, tc.actions[i])
				}
			}
			// A round ends in Apply with the update, or in Skip with an
			// insufficient sweep.
			wantOK := tc.actions[len(tc.actions)-1] == Apply
			if v.OK != wantOK || v.Update != tc.lastUpdate || !wantOK && v.Reason != FailInsufficient {
				t.Errorf("last verdict %+v, want ok=%v update=%v", v, wantOK, tc.lastUpdate)
			}
			tc.want.Rounds = 1
			if st != tc.want {
				t.Errorf("stats %+v, want %+v", st, tc.want)
			}
		})
	}
}

// TestPanicTrimOddPoolSizes: panic mode trims ⌊n/3⌋ from each end, so odd
// pool sizes keep a strict middle-third majority.
func TestPanicTrimOddPoolSizes(t *testing.T) {
	rule := NewRule(Config{})
	cases := []struct {
		offsets []time.Duration
		want    time.Duration
	}{
		// n=3: trim 1 each side, the median survives.
		{[]time.Duration{ms(-100), ms(7), ms(100)}, ms(7)},
		// n=5: trim 1 each side, middle three average.
		{[]time.Duration{ms(-50), ms(1), ms(2), ms(3), ms(50)}, ms(2)},
		// n=7: trim 2 each side, middle three average.
		{[]time.Duration{ms(-90), ms(-80), ms(4), ms(5), ms(6), ms(80), ms(90)}, ms(5)},
		// n=9: trim 3 each side.
		{[]time.Duration{ms(-9), ms(-8), ms(-7), ms(10), ms(11), ms(12), ms(70), ms(80), ms(90)}, ms(11)},
	}
	for _, tc := range cases {
		got, ok := rule.PanicUpdate(tc.offsets)
		if !ok {
			t.Fatalf("PanicUpdate(%v) not ok", tc.offsets)
		}
		if got != tc.want {
			t.Fatalf("PanicUpdate(n=%d) = %v, want %v", len(tc.offsets), got, tc.want)
		}
		if trim := Trim(len(tc.offsets)); len(tc.offsets)-2*trim < 1 {
			t.Fatalf("n=%d: trim %d leaves no survivors", len(tc.offsets), trim)
		}
	}
	// Unsorted input must behave identically: the rule orders internally.
	if got, _ := rule.PanicUpdate([]time.Duration{ms(100), ms(7), ms(-100)}); got != ms(7) {
		t.Fatalf("PanicUpdate on unsorted input = %v, want 7ms", got)
	}
	// Fewer than 3 replies: nothing survives the third-trimming.
	if _, ok := rule.PanicUpdate([]time.Duration{ms(1), ms(2)}); ok {
		t.Fatal("PanicUpdate accepted a 2-reply sweep")
	}
}

// TestEvaluateBoundaryCases pins the inclusive boundaries of C1 and C2:
// survivors exactly 2ω apart pass C1, an average exactly at ErrBound
// passes C2, and one nanosecond beyond either bound fails.
func TestEvaluateBoundaryCases(t *testing.T) {
	// m=9, d=3 → three survivors keep the boundary arithmetic transparent.
	rule := NewRule(Config{SampleSize: 9})
	if rule.trim != 3 || rule.minReplies != 6 {
		t.Fatalf("trim, reply floor = %d, %d, want m/3 = 3 and 2m/3 = 6", rule.trim, rule.minReplies)
	}
	pad := func(low, mid, high time.Duration) []time.Duration {
		// Three extreme values on each side are trimmed away; the middle
		// three are the survivors under test.
		return []time.Duration{
			-time.Second, -time.Second, -time.Second,
			low, mid, high,
			time.Second, time.Second, time.Second,
		}
	}

	// Survivors exactly 2ω apart, average 0: accepted.
	v := rule.Evaluate(pad(ms(-25), 0, ms(25)))
	if !v.OK || v.Span != ms(50) || v.Update != 0 {
		t.Fatalf("span=2ω rejected: %+v", v)
	}
	// One nanosecond over 2ω: C1 fails.
	v = rule.Evaluate(pad(ms(-25), 0, ms(25)+time.Nanosecond))
	if v.OK || v.Reason != FailC1 {
		t.Fatalf("span=2ω+1ns accepted: %+v", v)
	}
	// Average exactly at ErrBound: accepted (positive and negative side).
	v = rule.Evaluate(pad(ms(30), ms(30), ms(30)))
	if !v.OK || v.Update != ms(30) {
		t.Fatalf("avg=+ErrBound rejected: %+v", v)
	}
	v = rule.Evaluate(pad(ms(-30), ms(-30), ms(-30)))
	if !v.OK || v.Update != ms(-30) {
		t.Fatalf("avg=-ErrBound rejected: %+v", v)
	}
	// One nanosecond beyond ErrBound: C2 fails.
	v = rule.Evaluate(pad(ms(30)+time.Nanosecond, ms(30)+time.Nanosecond, ms(30)+time.Nanosecond))
	if v.OK || v.Reason != FailC2 {
		t.Fatalf("avg=ErrBound+1ns accepted: %+v", v)
	}
	// Reply floor: one short of 2m/3 is insufficient.
	v = rule.Evaluate([]time.Duration{0, 0, 0, 0, 0})
	if v.OK || v.Reason != FailInsufficient {
		t.Fatalf("5 replies under the floor of 6 accepted: %+v", v)
	}
}

// TestClientPanicEscalationOnWire drives the full packet client against a
// pool whose every server lies by a constant 10 s: each attempt passes C1
// (zero spread) but fails C2, so every round must consume exactly K
// re-samples and then panic — and the panic's third-trimmed average hands
// the clock to the liars, reproducing the paper's "panic mode offers no
// protection against a pool supermajority" observation.
func TestClientPanicEscalationOnWire(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 604})
	lie := 10 * time.Second
	_, ips, err := ntpserver.MaliciousFarm(n, simnet.IPv4(66, 0, 0, 1), 30, ntpserver.ConstantShift(lie))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(simnet.IPv4(10, 0, 0, 9))
	cli := New(ch, &clock.Clock{}, nil, Config{SyncInterval: 16 * time.Second})
	if err := cli.SeedPool(ips); err != nil {
		t.Fatal(err)
	}
	n.RunFor(10 * time.Minute)

	st := cli.Stats()
	if st.Panics == 0 {
		t.Fatal("no panic despite every attempt failing C2")
	}
	if st.Resamples != st.Panics*Retries {
		t.Fatalf("resamples = %d with %d panics and K=%d: escalation fired early or late",
			st.Resamples, st.Panics, Retries)
	}
	if st.PanicUpdates == 0 {
		t.Fatal("panic mode never applied the supermajority average")
	}
	// The very first panic steps the clock by ~10 s; after that the
	// shifted clock agrees with the liars and normal rounds resume.
	if off := cli.Offset(); off < lie-100*time.Millisecond {
		t.Fatalf("offset = %v, want ≈ %v after panic capitulation", off, lie)
	}
}

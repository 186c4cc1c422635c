package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestLogChoose(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1},
		{5, 5, 1},
		{5, 2, 10},
		{10, 3, 120},
		{15, 10, 3003},
		{52, 5, 2598960},
	}
	for _, tt := range tests {
		got := math.Exp(LogChoose(tt.n, tt.k))
		if !almostEqual(got, tt.want, tt.want*1e-9) {
			t.Errorf("C(%d,%d) = %v, want %v", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestLogChooseOutOfRange(t *testing.T) {
	if !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("C(5,-1) should be -Inf in log space")
	}
	if !math.IsInf(LogChoose(5, 6), -1) {
		t.Error("C(5,6) should be -Inf in log space")
	}
}

// binomPMF returns P[X = k] for X ~ Binomial(n, p): the large-population
// limit the hypergeometric is checked against.
func binomPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lp)
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 15, 40} {
		for _, p := range []float64{0.0, 0.1, 1.0 / 3.0, 0.5, 0.9, 1.0} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += binomPMF(n, p, k)
			}
			if !almostEqual(sum, 1, 1e-9) {
				t.Errorf("binom pmf n=%d p=%v sums to %v", n, p, sum)
			}
		}
	}
}

func TestHypergeomPMFSumsToOne(t *testing.T) {
	cases := []struct{ n, good, m int }{
		{10, 4, 3}, {133, 89, 15}, {96, 32, 15}, {50, 0, 10}, {50, 50, 10},
	}
	for _, c := range cases {
		sum := 0.0
		for k := 0; k <= c.m; k++ {
			sum += HypergeomPMF(c.n, c.good, c.m, k)
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("hypergeom pmf n=%d good=%d m=%d sums to %v", c.n, c.good, c.m, sum)
		}
	}
}

func TestHypergeomVsBinomLargePopulation(t *testing.T) {
	// With a large population the hypergeometric approaches the binomial.
	n, m := 100000, 15
	good := n / 3
	for k := 0; k <= m; k++ {
		h := HypergeomPMF(n, good, m, k)
		b := binomPMF(m, float64(good)/float64(n), k)
		if !almostEqual(h, b, 1e-4) {
			t.Errorf("k=%d: hypergeom %v vs binom %v", k, h, b)
		}
	}
}

func TestHypergeomTailPaperPool(t *testing.T) {
	// Figure-1 poisoned pool: 44 benign + 89 malicious = 133 servers.
	// The attacker holds >= 2/3, so capturing >= 10 of 15 samples must be
	// likely (better than a coin flip).
	p := HypergeomTail(133, 89, 15, 10)
	if p < 0.5 {
		t.Errorf("poisoned-pool capture probability = %v, want >= 0.5", p)
	}
	// Honest pool of 96 with zero malicious servers: capture impossible.
	if got := HypergeomTail(96, 0, 15, 1); got != 0 {
		t.Errorf("capture probability with honest pool = %v, want 0", got)
	}
}

func TestExpectedTrialsToRun(t *testing.T) {
	// c = 1 reduces to the geometric mean 1/p.
	got, err := ExpectedTrialsToRun(0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 4, 1e-9) {
		t.Errorf("E[T] c=1 p=0.25 = %v, want 4", got)
	}
	// p = 1 needs exactly c trials.
	got, err = ExpectedTrialsToRun(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("E[T] p=1 c=7 = %v, want 7", got)
	}
	// p = 0 never succeeds.
	got, err = ExpectedTrialsToRun(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("E[T] p=0 = %v, want +Inf", got)
	}
	if _, err := ExpectedTrialsToRun(0.5, 0); err == nil {
		t.Error("expected error for c = 0")
	}
}

func TestExpectedTrialsToRunMonteCarlo(t *testing.T) {
	// Cross-check the closed form by simulation.
	rng := rand.New(rand.NewSource(42))
	const (
		p      = 0.6
		c      = 3
		trials = 20000
	)
	total := 0.0
	for i := 0; i < trials; i++ {
		run, n := 0, 0
		for run < c {
			n++
			if rng.Float64() < p {
				run++
			} else {
				run = 0
			}
		}
		total += float64(n)
	}
	mc := total / trials
	want, err := ExpectedTrialsToRun(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc-want)/want > 0.05 {
		t.Errorf("monte carlo %v vs closed form %v", mc, want)
	}
}

// Property: hypergeometric tail is monotone non-increasing in k and
// monotone non-decreasing in the number of "good" elements.
func TestHypergeomTailMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(200)
		good := rng.Intn(n + 1)
		m := 1 + rng.Intn(n)
		prev := 1.0
		for k := 0; k <= m; k++ {
			cur := HypergeomTail(n, good, m, k)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		if good < n {
			// More good elements can only increase the tail.
			k := m/2 + 1
			if HypergeomTail(n, good+1, m, k)+1e-12 < HypergeomTail(n, good, m, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package shiftsim

import (
	"reflect"
	"testing"
	"time"

	"chronosntp/internal/chronos"
)

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Horizon: 24 * time.Hour}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c, err := Run(Config{Seed: 12, Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestHonestPoolNeverShifts: with zero attacker servers, a month of
// rounds keeps the clock within the honest noise floor — the engine's
// baseline sanity.
func TestHonestPoolNeverShifts(t *testing.T) {
	res, err := Run(Config{Seed: 21, PoolSize: 96, Malicious: 0, Horizon: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shifted || res.Captures != 0 {
		t.Fatalf("honest pool shifted: %+v", res)
	}
	if res.MaxOffset > 10*time.Millisecond {
		t.Fatalf("honest max offset %v, want within noise", res.MaxOffset)
	}
	if res.Rounds < 30000 {
		t.Fatalf("only %d rounds over 30 days", res.Rounds)
	}
}

// TestBoundHoldsBelowOneThird reproduces the proof's regime empirically:
// at 25% attacker share, a greedy attacker makes no measurable progress
// over a month — the closed form says decades, the round loop agrees.
func TestBoundHoldsBelowOneThird(t *testing.T) {
	res, err := Run(Config{
		Seed: 22, PoolSize: 132, Malicious: 33,
		Horizon: 30 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shifted {
		t.Fatalf("25%% attacker shifted the clock within a month: %+v", res)
	}
	if res.MaxOffset >= 100*time.Millisecond {
		t.Fatalf("max offset %v at 25%% attacker share", res.MaxOffset)
	}
}

// TestBoundCollapsesAtTwoThirds: the paper's poisoned pool (89/133) falls
// within the first virtual hours, as the closed form predicts (≈ 14
// rounds expected).
func TestBoundCollapsesAtTwoThirds(t *testing.T) {
	res, err := Run(Config{Seed: 23, Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shifted {
		t.Fatalf("poisoned pool did not shift within a day: %+v", res)
	}
	if res.TimeToShift > 2*time.Hour {
		t.Fatalf("time to 100ms = %v, want hours not days", res.TimeToShift)
	}
	if res.RoundsToRun == 0 || res.RoundsToShift < res.RoundsToRun {
		t.Fatalf("capture-run bookkeeping inconsistent: %+v", res)
	}
}

// TestStealthSmallStepsButSlower: against the poisoned pool the stealth
// drip reaches the target, but no accepted update ever exceeds the drip —
// the step-size signature stays inside honest clock noise, where greedy's
// pushes are full ErrBound-sized jumps. The price is more rounds.
func TestStealthSmallStepsButSlower(t *testing.T) {
	greedy, err := Run(Config{Seed: 24, Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	stealth, err := Run(Config{Seed: 24, Strategy: Stealth{}, Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !stealth.Shifted {
		t.Fatalf("stealth never shifted the poisoned pool: %+v", stealth)
	}
	if stealth.MaxPush > 5*time.Millisecond {
		t.Fatalf("stealth accepted a %v update, want ≤ the 5ms drip", stealth.MaxPush)
	}
	if greedy.MaxPush < 20*time.Millisecond {
		t.Fatalf("greedy's largest push %v, want ≈ MaxStep", greedy.MaxPush)
	}
	if stealth.RoundsToShift <= greedy.RoundsToShift {
		t.Fatalf("stealth (%d rounds) not slower than greedy (%d rounds)",
			stealth.RoundsToShift, greedy.RoundsToShift)
	}
}

// TestStealthStallsAgainstHonestMajority: the same drip against a 25%
// pool share hits the trimmed mean's equilibrium and never gets near the
// target.
func TestStealthStallsAgainstHonestMajority(t *testing.T) {
	res, err := Run(Config{
		Seed: 25, PoolSize: 132, Malicious: 33, Strategy: Stealth{},
		Horizon: 14 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shifted || res.MaxOffset >= 50*time.Millisecond {
		t.Fatalf("stealth drip beat an honest majority: %+v", res)
	}
}

// TestIntermittentDodgesPanics compares steady-state panic rates: with an
// unreachable target forcing both attackers to run a full virtual day,
// greedy's broken capture runs exhaust the K re-samples with guaranteed
// C2 failures, while intermittent's C2-passing unwind steps give every
// re-sample a capture-probability chance of recovery — its panic count
// must come out far lower.
func TestIntermittentDodgesPanics(t *testing.T) {
	cfg := Config{Seed: 26, Horizon: 24 * time.Hour, Target: 10 * time.Second, RunLength: -1}
	cfg.Strategy = Greedy{}
	loud, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = Intermittent{}
	quiet, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loud.Panics < 20 {
		t.Fatalf("greedy steady state shows only %d panics over a day", loud.Panics)
	}
	if quiet.Panics*4 > loud.Panics {
		t.Fatalf("intermittent panics %d not ≪ greedy's %d", quiet.Panics, loud.Panics)
	}
	// And with the real target, the bursts still get there.
	shift, err := Run(Config{Seed: 26, Strategy: Intermittent{}, Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !shift.Shifted {
		t.Fatalf("intermittent never reached the target: %+v", shift)
	}
}

// TestSleeperHonestUntilThreshold: before the trigger round the sleeper
// is indistinguishable from a benign pool (no captures exploited, clock
// within noise); after it, the greedy collapse plays out.
func TestSleeperHonestUntilThreshold(t *testing.T) {
	res, err := Run(Config{Seed: 27, Strategy: HonestUntilThreshold{}, Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shifted {
		t.Fatalf("sleeper never woke: %+v", res)
	}
	if res.RoundsToShift <= sleeperAfter {
		t.Fatalf("shift at round %d, before the trigger", res.RoundsToShift)
	}
	if res.RoundsToShift > sleeperAfter+120 {
		t.Fatalf("post-trigger collapse took %d rounds, want the greedy pace", res.RoundsToShift-sleeperAfter)
	}
}

// TestSmallPoolSamplesEverything: a pool below the default m=15 shrinks
// the sample (and trim/reply floor) consistently instead of wedging.
func TestSmallPoolSamplesEverything(t *testing.T) {
	res, err := Run(Config{Seed: 28, PoolSize: 9, Malicious: 9, Horizon: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shifted {
		t.Fatalf("all-malicious 9-pool never shifted: %+v", res)
	}
	honest, err := Run(Config{Seed: 28, PoolSize: 9, Malicious: 0, Horizon: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if honest.Shifted || honest.Updates == 0 {
		t.Fatalf("honest 9-pool misbehaved: %+v", honest)
	}
}

// TestStrategyRegistry: every registered name builds its strategy and the
// names round-trip.
func TestStrategyRegistry(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("want 4 registered strategies, got %v", names)
	}
	for _, name := range names {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestViewCaptured pins the two capture predicates: sample capture at
// m − d, panic capture at benign ≤ ⌊n/3⌋.
func TestViewCaptured(t *testing.T) {
	v := View{SampledMalicious: 10, CaptureNeed: 10}
	if !v.Captured() {
		t.Fatal("m−d malicious samples not captured")
	}
	v.SampledMalicious = 9
	if v.Captured() {
		t.Fatal("m−d−1 malicious samples captured")
	}
	p := View{Panic: true, PoolSize: 133, PoolMalicious: 89}
	if !p.Captured() {
		t.Fatal("89/133 panic sweep not captured (benign 44 ≤ ⌊133/3⌋)")
	}
	p.PoolMalicious = 88
	if p.Captured() {
		t.Fatal("88/133 panic sweep captured (benign 45 > 44)")
	}
}

// TestElapsedAccountsRounds: virtual time covers at least the sync
// intervals of every round — the FastForward hops are really advancing
// the network clock.
func TestElapsedAccountsRounds(t *testing.T) {
	res, err := Run(Config{Seed: 33, PoolSize: 96, Malicious: 0, Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < time.Duration(res.Rounds)*chronos.SyncInterval {
		t.Fatalf("elapsed %v < %d rounds × %v", res.Elapsed, res.Rounds, chronos.SyncInterval)
	}
	if res.Elapsed < 24*time.Hour {
		t.Fatalf("run stopped before the horizon: %v", res.Elapsed)
	}
}

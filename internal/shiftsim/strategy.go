package shiftsim

import (
	"fmt"
	"sort"
	"time"

	"chronosntp/internal/chronos"
)

// View is what the attacker observes before deciding what its servers
// serve for one sampling attempt. It models a MitM-grade adversary — the
// threat model of the Chronos NDSS'18 proof: the attacker reads the
// client's clock error off the request's TransmitTime, and (on-path) sees
// which servers the client sampled, so it knows whether it holds enough
// of this attempt's sample to own every trimmed-mean survivor.
type View struct {
	// Wire is true when the strategy runs inside a packet-level ntpserver
	// (full-fidelity mode): per-sample composition fields are then
	// unknown (zero) and Observed includes the one-way latency error.
	Wire bool

	Round   int  // 1-based sync round (approximated from virtual time in wire mode)
	Attempt int  // 0 = fresh round, >0 = re-sample (compressed mode only)
	Panic   bool // this query is the panic-mode full-pool sweep (compressed mode only)

	// Observed is the client's clock error (local − true) as read off its
	// request.
	Observed time.Duration

	SampledMalicious int // attacker servers in this attempt's sample (compressed mode only)
	SampleSize       int // m for this attempt (pool size during panic)
	CaptureNeed      int // m − d: attacker samples needed to own every survivor

	PoolSize      int
	PoolMalicious int

	// MaxStep is MaxStep of the client's effective configuration: the
	// default per-round step of the adaptive strategies.
	MaxStep time.Duration
}

// Captured reports whether the attacker owns every survivor of this
// attempt's trimmed mean.
func (v View) Captured() bool {
	if v.Panic {
		// Panic trims ⌊n/3⌋ from each end; every survivor is malicious
		// iff at most ⌊n/3⌋ benign replies exist to be trimmed away.
		return v.PoolSize-v.PoolMalicious <= chronos.PanicTrim(v.PoolSize)
	}
	return v.SampledMalicious >= v.CaptureNeed
}

// Strategy decides the offset sample the attacker's servers present to
// the client for one attempt: the returned value is the clock offset the
// client will *compute* from those servers (server time − client time).
// Returning −View.Observed is exactly honest service (the server tells
// true time). Strategies must be stateless value types: one value is
// shared across every attacker server and across parallel trials.
type Strategy interface {
	Name() string
	Plan(v View) time.Duration
}

// WireGuard is the safety margin adaptive strategies keep under the C2
// bound in wire mode, absorbing the one-way-latency error in their clock
// observation (default path latency is 2–5 ms).
const WireGuard = 5 * time.Millisecond

// MaxStep returns the largest per-round step the default strategies
// attempt: ErrBound − WireGuard (25 ms at the NDSS'18 defaults — the same
// per-round step the paper's closed-form bound assumes).
func MaxStep(cfg chronos.Config) time.Duration {
	if step := cfg.ErrBound - WireGuard; step > 0 {
		return step
	}
	return cfg.ErrBound
}

// Greedy takes the maximum per-round step that still passes C1/C2, and
// only when it owns every survivor of a fresh attempt; on any miss it
// serves honestly until the client has re-anchored (an accepted honest
// round, or a panic sweep it answers truthfully). This reset discipline
// makes each sync round an independent Bernoulli trial with the
// hypergeometric capture probability — exactly the Markov chain behind
// stats.ExpectedTrialsToRun, which is what lets the engine cross-validate
// the closed-form "decades to shift" bound empirically.
type Greedy struct {
	// Step is the per-capture step; 0 means MaxStep (ErrBound − 5 ms).
	Step time.Duration
	// ExploitPanic also pushes during panic sweeps the attacker owns
	// (pool supermajority). Off by default: the closed-form chain resets
	// on every miss, so the default Greedy does too.
	ExploitPanic bool
}

// Name implements Strategy.
func (Greedy) Name() string { return "greedy" }

// Plan implements Strategy.
func (g Greedy) Plan(v View) time.Duration {
	step := g.Step
	if step == 0 {
		step = v.MaxStep
	}
	return greedyPlan(v, step, g.ExploitPanic)
}

// greedyPlan is the capture-or-reset core shared with Intermittent's
// burst phase.
func greedyPlan(v View, step time.Duration, exploitPanic bool) time.Duration {
	if v.Wire {
		return step // always push; misses surface as C1 failures on the wire
	}
	if v.Panic {
		if exploitPanic && v.Captured() {
			return step
		}
		return -v.Observed // honest: let the sweep re-anchor the client
	}
	if v.Attempt == 0 && v.Captured() {
		return step
	}
	return -v.Observed
}

// Stealth drips a constant sub-ErrBound offset into every reply,
// including panic sweeps (which a pool supermajority quietly owns: the
// honest replies are exactly the third that panic mode trims away). No
// accepted update ever exceeds Drip — to a step-size anomaly detector the
// attack is indistinguishable from honest clock noise, where Greedy's
// 25 ms jumps stand out. The cost: against an honest majority the trimmed
// mean's benign survivors pull the average back and the drip stalls at a
// sub-ErrBound equilibrium (the engine shows the bound holding), and even
// against a supermajority the accumulated shift makes mixed samples fail
// C1 occasionally, so progress is slower than Greedy's.
type Stealth struct {
	// Drip is the per-reply offset; 0 means 5 ms.
	Drip time.Duration
}

// Name implements Strategy.
func (Stealth) Name() string { return "stealth" }

// Plan implements Strategy.
func (s Stealth) Plan(v View) time.Duration {
	drip := s.Drip
	if drip == 0 {
		drip = 5 * time.Millisecond
	}
	return drip
}

// Intermittent alternates pushing bursts with unwind phases, built to
// dodge the K-failure panic escalation. Greedy marches into panics: after
// a broken capture run leaves the clock more than ErrBound out, its
// honest replies are *guaranteed* C2 failures, so the K re-samples always
// exhaust. Intermittent instead serves a C2-passing step on every attempt
// it captures — +Step during bursts, a clamped walk-home during sleeps —
// so each re-sample is another chance (hypergeometric-p likely) to land a
// valid update, and panic needs K+1 consecutive sample misses instead of
// being certain. The sleep phase walks the accumulated shift back before
// it hardens into a detectable standing offset.
type Intermittent struct {
	Burst int           // pushing rounds per cycle; 0 means 4
	Sleep int           // unwind rounds per cycle; 0 means 12
	Step  time.Duration // per-round step; 0 means MaxStep
}

// Name implements Strategy.
func (Intermittent) Name() string { return "intermittent" }

// Plan implements Strategy.
func (i Intermittent) Plan(v View) time.Duration {
	burst, sleep := i.Burst, i.Sleep
	if burst == 0 {
		burst = 4
	}
	if sleep == 0 {
		sleep = 12
	}
	step := i.Step
	if step == 0 {
		step = v.MaxStep
	}
	if v.Wire {
		if pos := (v.Round - 1) % (burst + sleep); pos < burst {
			return step
		}
		return -clampMag(v.Observed, step)
	}
	if pos := (v.Round - 1) % (burst + sleep); pos < burst && v.Captured() {
		return step
	}
	// Unwind (and any attempt the attacker does not fully own): serve the
	// client's own error back, clamped to a C2-passing step.
	return -clampMag(v.Observed, step)
}

// HonestUntilThreshold is the sleeper: it serves true time — statistically
// indistinguishable from a benign server — until the trigger round, then
// turns into the inner strategy. It models an attacker that plants pool
// servers long before using them (the paper's poisoned pool persists for
// the entire TTL-pinned generation horizon).
type HonestUntilThreshold struct {
	// After is the last all-honest round; 0 means 60.
	After int
	// Inner is the post-trigger behaviour; nil means Greedy{}.
	Inner Strategy
}

// Name implements Strategy.
func (HonestUntilThreshold) Name() string { return "honest-until-threshold" }

// Plan implements Strategy.
func (h HonestUntilThreshold) Plan(v View) time.Duration {
	after := h.After
	if after == 0 {
		after = 60
	}
	if v.Round <= after {
		return -v.Observed
	}
	if h.Inner == nil {
		// Called directly: boxing a Greedy{} into a Strategy on every
		// post-trigger attempt would allocate each time.
		return Greedy{}.Plan(v)
	}
	return h.Inner.Plan(v)
}

// clampMag limits d to ±bound.
func clampMag(d, bound time.Duration) time.Duration {
	if d > bound {
		return bound
	}
	if d < -bound {
		return -bound
	}
	return d
}

// strategies is the registry behind ByName / Names.
var strategies = map[string]func() Strategy{
	"greedy":                 func() Strategy { return Greedy{} },
	"stealth":                func() Strategy { return Stealth{} },
	"intermittent":           func() Strategy { return Intermittent{} },
	"honest-until-threshold": func() Strategy { return HonestUntilThreshold{} },
}

// ByName returns the named strategy with its default parameters, or an
// error listing the valid names.
func ByName(name string) (Strategy, error) {
	mk, ok := strategies[name]
	if !ok {
		return nil, fmt.Errorf("shiftsim: unknown strategy %q (valid: %v)", name, Names())
	}
	return mk(), nil
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	out := make([]string, 0, len(strategies))
	for name := range strategies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

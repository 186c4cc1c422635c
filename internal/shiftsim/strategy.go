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
}

// Captured reports whether the attacker owns every survivor of this
// attempt's trimmed mean.
func (v View) Captured() bool {
	if v.Panic {
		// Panic trims ⌊n/3⌋ from each end; every survivor is malicious
		// iff at most ⌊n/3⌋ benign replies exist to be trimmed away.
		return v.PoolSize-v.PoolMalicious <= chronos.Trim(v.PoolSize)
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

// MaxStep is the largest per-round step the strategies attempt:
// ErrBound − WireGuard, 25 ms, the same per-round step the paper's
// closed-form bound assumes.
const MaxStep = chronos.ErrBound - WireGuard

// The strategies' fixed parameters; Greedy and Intermittent step by
// MaxStep.
const (
	stealthDrip       = 5 * time.Millisecond // Stealth's per-reply offset
	intermittentBurst = 4                    // Intermittent's pushing rounds per cycle
	intermittentSleep = 12                   // Intermittent's unwind rounds per cycle
	sleeperAfter      = 60                   // HonestUntilThreshold's last all-honest round
)

// Greedy takes the maximum per-round step, MaxStep, that still passes
// C1/C2, and only when it owns every survivor of a fresh attempt; on any
// miss it serves honestly until the client has re-anchored (an accepted
// honest round, or a panic sweep it answers truthfully even when it owns
// the sweep). This reset discipline makes each sync round an independent
// Bernoulli trial with the hypergeometric capture probability — exactly
// the Markov chain behind stats.ExpectedTrialsToRun, which is what lets
// the engine cross-validate the closed-form "decades to shift" bound
// empirically.
type Greedy struct{}

// Name implements Strategy.
func (Greedy) Name() string { return "greedy" }

// Plan implements Strategy.
func (Greedy) Plan(v View) time.Duration {
	if v.Wire {
		return MaxStep // always push; misses surface as C1 failures on the wire
	}
	if !v.Panic && v.Attempt == 0 && v.Captured() {
		return MaxStep
	}
	return -v.Observed // honest: let the client re-anchor
}

// Stealth drips a constant 5 ms offset into every reply, including panic
// sweeps (which a pool supermajority quietly owns: the honest replies are
// exactly the third that panic mode trims away). No accepted update ever
// exceeds the drip — to a step-size anomaly detector the attack is
// indistinguishable from honest clock noise, where Greedy's 25 ms jumps
// stand out. The cost: against an honest majority the trimmed mean's
// benign survivors pull the average back and the drip stalls at a
// sub-ErrBound equilibrium (the engine shows the bound holding), and even
// against a supermajority the accumulated shift makes mixed samples fail
// C1 occasionally, so progress is slower than Greedy's.
type Stealth struct{}

// Name implements Strategy.
func (Stealth) Name() string { return "stealth" }

// Plan implements Strategy.
func (Stealth) Plan(View) time.Duration { return stealthDrip }

// Intermittent alternates bursts of 4 pushing rounds with 12 unwind
// rounds, built to dodge the K-failure panic escalation. Greedy marches
// into panics: after a broken capture run leaves the clock more than
// ErrBound out, its honest replies are *guaranteed* C2 failures, so the K
// re-samples always exhaust. Intermittent instead serves a C2-passing
// step on every attempt it captures — +MaxStep during bursts, a clamped
// walk-home during sleeps — so each re-sample is another chance
// (hypergeometric-p likely) to land a valid update, and panic needs K+1
// consecutive sample misses instead of being certain. The sleep phase
// walks the accumulated shift back before it hardens into a detectable
// standing offset.
type Intermittent struct{}

// Name implements Strategy.
func (Intermittent) Name() string { return "intermittent" }

// Plan implements Strategy.
func (Intermittent) Plan(v View) time.Duration {
	burst := (v.Round-1)%(intermittentBurst+intermittentSleep) < intermittentBurst
	if burst && (v.Wire || v.Captured()) {
		return MaxStep
	}
	// Unwind (and any attempt the attacker does not fully own): serve the
	// client's own error back, clamped to a C2-passing step.
	return -clampMag(v.Observed, MaxStep)
}

// HonestUntilThreshold is the sleeper: it serves true time — statistically
// indistinguishable from a benign server — through round 60, then turns
// Greedy. It models an attacker that plants pool servers long before
// using them (the paper's poisoned pool persists for the entire
// TTL-pinned generation horizon).
type HonestUntilThreshold struct{}

// Name implements Strategy.
func (HonestUntilThreshold) Name() string { return "honest-until-threshold" }

// Plan implements Strategy.
func (HonestUntilThreshold) Plan(v View) time.Duration {
	if v.Round <= sleeperAfter {
		return -v.Observed
	}
	return Greedy{}.Plan(v)
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

// Package clock models per-host system clocks for the simulated network.
//
// Every host owns a Clock. The simulator advances a single reference
// ("true") timeline; a host's local reading is
//
//	local(t) = t + offset + drift·(t − epoch)
//
// where offset is the accumulated error (changed by Step) and drift is a
// constant frequency error in parts-per-million (crystal skew). Slewing is
// modelled as an instantaneous change to offset combined with a bounded
// per-adjustment amortisation handled by the caller (the NTP discipline);
// keeping the clock itself piecewise-linear keeps the event-driven
// simulation exact and reproducible.
//
// The piecewise-linear model is what every layer above builds on: honest
// ntpserver hosts answer queries from a Clock with small random offset
// and ppm drift, the ntpclient/chronos disciplines Step their local
// Clock from measured offsets, and the experiments read Offset directly
// as the ground-truth clock error — no estimation is involved, because
// the simulator owns the reference timeline. That is also why attack
// outcomes ("shifted by > 100 ms") are exact measurements rather than
// inferences. The shiftsim engine advances the same model over years of
// virtual time; nothing in the clock accumulates floating-point error
// with the number of readings, only with the number of Steps.
package clock

import (
	"fmt"
	"math/rand"
	"time"
)

// Clock is a simulated system clock. The zero value is a perfect clock
// (zero offset, zero drift) anchored at the zero time.
type Clock struct {
	epoch    time.Time     // true time at which offset/drift were last anchored
	offset   time.Duration // local − true at epoch
	driftPPM float64       // frequency error, parts per million
	steps    int           // number of discontinuous adjustments applied
}

// New returns a clock with the given initial offset and drift, anchored at
// the true-time instant epoch.
func New(epoch time.Time, offset time.Duration, driftPPM float64) *Clock {
	return &Clock{epoch: epoch, offset: offset, driftPPM: driftPPM}
}

// Now converts a true-time instant into this clock's local reading.
func (c *Clock) Now(trueNow time.Time) time.Time {
	return trueNow.Add(c.Offset(trueNow))
}

// Offset returns local − true at the given true-time instant, including
// accumulated drift since the last adjustment. A clock without drift
// returns its stored offset without reading trueNow: the drift term is
// exactly zero for every instant, so the shortcut is bit-identical.
func (c *Clock) Offset(trueNow time.Time) time.Duration {
	if c.driftPPM == 0 {
		return c.offset
	}
	elapsed := trueNow.Sub(c.epoch)
	driftErr := time.Duration(float64(elapsed) * c.driftPPM / 1e6)
	return c.offset + driftErr
}

// Step applies a discontinuous adjustment of delta to the local clock at
// the given true-time instant (positive delta moves the local clock
// forward). Drift accumulated so far is folded into the new anchor.
func (c *Clock) Step(trueNow time.Time, delta time.Duration) {
	c.offset = c.Offset(trueNow) + delta
	c.epoch = trueNow
	c.steps++
}

// SetTo sets the local clock to read exactly local at the true-time instant
// trueNow. This is how a synchronisation algorithm applies its computed
// estimate.
func (c *Clock) SetTo(trueNow time.Time, local time.Time) {
	c.offset = local.Sub(trueNow)
	c.epoch = trueNow
	c.steps++
}

// SetDrift changes the clock's frequency error at the given instant,
// preserving the current local reading.
func (c *Clock) SetDrift(trueNow time.Time, driftPPM float64) {
	c.offset = c.Offset(trueNow)
	c.epoch = trueNow
	c.driftPPM = driftPPM
}

// DriftPPM returns the configured frequency error in parts per million.
func (c *Clock) DriftPPM() float64 { return c.driftPPM }

// Steps returns the number of discontinuous adjustments applied so far,
// which synchronisation tests use to verify step-vs-slew behaviour.
func (c *Clock) Steps() int { return c.steps }

// String implements fmt.Stringer for diagnostics.
func (c *Clock) String() string {
	return fmt.Sprintf("clock{offset=%v drift=%.3fppm steps=%d}", c.offset, c.driftPPM, c.steps)
}

// Wander models benign oscillator instability as a bounded random walk on
// the drift rate: crystal frequency error is not constant in the wild —
// temperature and aging wander it by fractions of a ppm between
// synchronisation rounds. The long-horizon shift engine perturbs a
// client's drift with one Next step per sync round so that a multi-year
// run sees realistic frequency wander instead of a frozen skew.
//
// The zero value disables wander (Next returns its input unchanged).
type Wander struct {
	// StepPPM is the scale of one perturbation: each step draws uniformly
	// from ±StepPPM and adds it to the current drift.
	StepPPM float64
	// MaxPPM clamps the walked drift to ±MaxPPM (0 = unbounded). Real
	// oscillators stay within their datasheet tolerance; the clamp keeps
	// decade-long walks physical.
	MaxPPM float64
}

// Enabled reports whether the wander perturbs at all.
func (w Wander) Enabled() bool { return w.StepPPM != 0 }

// Next walks the drift one step using rng and returns the new drift in
// ppm, clamped to ±MaxPPM when a bound is set.
func (w Wander) Next(rng *rand.Rand, driftPPM float64) float64 {
	if !w.Enabled() {
		return driftPPM
	}
	d := driftPPM + (rng.Float64()*2-1)*w.StepPPM
	if w.MaxPPM > 0 {
		if d > w.MaxPPM {
			d = w.MaxPPM
		}
		if d < -w.MaxPPM {
			d = -w.MaxPPM
		}
	}
	return d
}

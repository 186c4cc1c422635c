// Package shiftsim is the long-horizon adversarial clock-shift engine: it
// drives the Chronos round loop — sample m, trim 2d, C1/C2, K-failure
// panic escalation, exactly the code path internal/chronos runs on the
// wire — over weeks to years of virtual time against attacker-controlled
// servers that serve *adaptive* offsets.
//
// The paper's headline claim ("to shift time on a Chronos NTP client by
// 100ms a strong MitM attacker would need 20 years of effort" — and its
// collapse to hours once DNS poisoning hands the attacker ≥ 2/3 of the
// pool) is a closed-form Markov computation (analysis.TimeToShift over
// stats.ExpectedTrialsToRun). This package validates it empirically: the
// engine measures the first time the client's clock error crosses the
// target, plus the round-level capture-run statistic the closed form
// models, and eval.ShiftStudy (E10) cross-tabulates both against the
// prediction.
//
// The engine compresses each sync round to its sampling attempts and
// shares the packet client's decision core: each round is a
// chronos.Round, which judges the offsets, walks the re-sample/panic
// ladder and keeps the round counters; the engine only gathers offsets
// and steps its clock. Pool sampling is a real without-replacement draw
// from the seeded RNG, honest samples carry per-server clock error and
// latency asymmetry, malicious samples follow the Strategy, and virtual
// time advances with simnet.FastForward — an O(1) hop between rounds.
// The attempt loop allocates nothing, draws math/rand's values without
// its divisions, and the rule trims by selection rather than sorting;
// chronosbench's shift workload (six 250k-round runs on the paper's pool
// sizes) sustains about 2.4M simulated rounds/s on two cores, so a
// decade-long horizon is seconds of wall time.
//
// Everything is deterministic from Config.Seed at any parallelism: each
// trial owns its own simnet.Network and consumes only that network's RNG.
// Determinism is also what makes the E10 checkpoint/resume path sound:
// eval.ShiftStudyCheckpointed persists each trial's Result as it
// completes, and a resumed run replays the stored Results into the same
// per-trial slots — since a trial's bytes depend only on its seed, the
// resumed table is bit-identical to an uninterrupted one (pinned by the
// cmd/attacksim golden test).
//
// Run returns a Result carrying the first-crossing time, round count,
// panic count and the largest accepted update; RunLength < 0 disables
// the round cap so the horizon alone bounds the run. The crossval suite
// (crossval_test.go) holds the greedy strategy's empirical capture-run
// statistics to the closed-form model within the Monte-Carlo CI. The
// engine's rounds/sec — the throughput bar that keeps decade-scale
// horizons tractable — is chronosbench's shift workload
// (bench/chronosbench), with BenchmarkShiftEngine as its layer rung.
package shiftsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/simnet"
)

// jitter is the half-width of an honest sample's latency asymmetry.
const jitter = 1500 * time.Microsecond

// honestErr bounds each honest server's clock error: Run draws it from
// [−honestErr, honestErr).
const honestErr = 2 * time.Millisecond

// Errors returned by Validate and Run.
var (
	ErrBadPool   = errors.New("shiftsim: malicious count exceeds pool size")
	ErrBadConfig = errors.New("shiftsim: invalid config")
	ErrBadAuth   = errors.New("shiftsim: invalid auth model")
)

// Config parameterises one long-horizon run.
type Config struct {
	Seed int64 // simulation seed; 0 means 1

	PoolSize  int // Chronos pool size; default 133 (the paper's poisoned pool)
	Malicious int // attacker-controlled members; default 89

	Strategy Strategy       // attacker behaviour; nil means Greedy{}
	Client   chronos.Config // Chronos parameters; zero fields take NDSS'18 defaults

	Target  time.Duration // shift the attacker is after; default 100 ms
	Horizon time.Duration // virtual-time budget; default 30 days

	// MaxRounds caps the number of sync rounds (0 = horizon only).
	MaxRounds int

	// RunLength is the consecutive-capture run whose first completion is
	// recorded in Result.RoundsToRun — the statistic the closed-form bound
	// models. 0 derives ⌈Target/MaxStep⌉; negative disables tracking.
	RunLength int

	// Auth models the authentication arms race (see auth.go): which
	// benign servers the client holds credentials for, how strong they
	// are, and what the on-path attacker does to the auth layer. nil
	// (the default) leaves the engine bit-identical to the pre-auth
	// behaviour.
	Auth *AuthModel
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PoolSize == 0 {
		c.PoolSize = 133
		if c.Malicious == 0 {
			c.Malicious = 89 // the paper's poisoned pool
		}
	}
	if c.Strategy == nil {
		c.Strategy = Greedy{}
	}
	// A pool smaller than the default sample is sampled whole.
	cc := chronos.NewRule(c.Client).Config()
	if c.Client.SampleSize == 0 && cc.SampleSize > c.PoolSize {
		cc.SampleSize = c.PoolSize
	}
	c.Client = cc
	if c.Target == 0 {
		c.Target = 100 * time.Millisecond
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * 24 * time.Hour
	}
	if c.RunLength == 0 {
		c.RunLength = int(math.Ceil(float64(c.Target) / float64(MaxStep)))
	}
	if c.Auth != nil {
		// Normalize into a fresh value: the caller's AuthModel may be
		// shared across parallel trials and must not be mutated.
		a := c.Auth.withDefaults()
		c.Auth = &a
	}
	return c
}

// Result is one run's measurement.
type Result struct {
	Rounds   int // sync rounds started
	Attempts int // sampling attempts (incl. re-samples; excl. panic sweeps)

	Updates      int // normal-path clock updates
	Resamples    int
	Panics       int
	PanicUpdates int
	Captures     int // fresh attempts whose survivors were all malicious

	Shifted       bool          // |clock error| reached Target within the horizon
	TimeToShift   time.Duration // virtual time from start to the first crossing (0 if never)
	RoundsToShift int           // sync round of the first crossing (0 if never)

	// RoundsToRun is the round at which RunLength consecutive fresh-attempt
	// captures first completed (0 if never / disabled) — the empirical
	// counterpart of stats.ExpectedTrialsToRun.
	RoundsToRun int

	MaxOffset   time.Duration // largest |clock error| seen
	FinalOffset time.Duration // clock error at the end of the run
	Elapsed     time.Duration // virtual time simulated

	// MaxPush is the largest forward (attacker-direction) normal-path
	// update accepted — the step-size signature an anomaly detector would
	// see.
	MaxPush time.Duration

	// Auth-model counters, zero unless Config.Auth is set.
	AuthRejected int // samples dropped by the client's credential policy
	Demobilized  int // benign servers killed by believed forged kisses
}

// Validate reports whether Run accepts c. Zero fields take their
// defaults first; every value still out of range is an error wrapping
// ErrBadPool (the pool's composition), ErrBadAuth (the auth model) or
// ErrBadConfig (anything else), and nothing is clamped. Only a sample
// size left at its default shrinks to fit a small pool.
func (c Config) Validate() error { return c.withDefaults().validate() }

// validate checks a configuration whose defaults are resolved.
func (c Config) validate() error {
	if c.Malicious > c.PoolSize || c.PoolSize < 1 || c.Malicious < 0 {
		return fmt.Errorf("%w: %d/%d", ErrBadPool, c.Malicious, c.PoolSize)
	}
	cc := c.Client
	switch {
	case c.PoolSize > math.MaxInt32:
		// The engine's bounded draws are exact up to 2^31−1.
		return fmt.Errorf("%w: pool size %d exceeds 2^31−1", ErrBadConfig, c.PoolSize)
	case cc.SampleSize > c.PoolSize:
		return fmt.Errorf("%w: sample size %d exceeds the pool's %d", ErrBadConfig, cc.SampleSize, c.PoolSize)
	case c.Target < 0 || c.Horizon < 0:
		return fmt.Errorf("%w: negative target %v or horizon %v", ErrBadConfig, c.Target, c.Horizon)
	case c.MaxRounds < 0:
		return fmt.Errorf("%w: negative round cap %d", ErrBadConfig, c.MaxRounds)
	}
	if err := cc.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if c.Auth != nil {
		return c.Auth.validate()
	}
	return nil
}

// Run executes one long-horizon simulation of a configuration Validate
// accepts, and returns Validate's error otherwise.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newEngine(cfg).run()
}

// Sample runs trials independent engines seeded seed, seed+1, … and
// returns their results in seed order. It is the sequential inner loop of
// the Monte-Carlo studies; callers parallelise across grid points.
func Sample(cfg Config, seed int64, trials int) ([]*Result, error) {
	out := make([]*Result, trials)
	for i := range out {
		c := cfg
		c.Seed = seed + int64(i)
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// engine is one run's state.
type engine struct {
	cfg    Config
	net    *simnet.Network
	clk    *clock.Clock
	rule   chronos.Rule
	benign int

	// Read once from the rule rather than per attempt, which would copy
	// the whole Rule.
	captureNeed int // rule.CaptureNeed()

	honest  []time.Duration // per-benign-server clock error
	idx     []int           // sampling scratch (partial Fisher–Yates)
	draws   []intn          // draws[i] is Intn(PoolSize−i), sampling's ith draw
	offsets []time.Duration // per-attempt sample buffer

	// Auth-model state (see auth.go); zero-valued when cfg.Auth is nil.
	authCount int    // benign indices < authCount are credentialed
	reqAuth   bool   // the client drops samples it cannot verify
	forge     bool   // SchemeForgeable(cfg.Auth.Scheme)
	kodDead   []bool // benign servers demobilized by believed kisses

	stats  chronos.Stats // the round counters, copied into res at the end
	res    Result
	streak int // current fresh-attempt capture run
	start  time.Time
}

func newEngine(cfg Config) *engine {
	net := simnet.New(simnet.Config{Seed: cfg.Seed})
	rng := net.Rand()
	rule := chronos.NewRule(cfg.Client)
	e := &engine{
		cfg:         cfg,
		net:         net,
		clk:         &clock.Clock{},
		rule:        rule,
		benign:      cfg.PoolSize - cfg.Malicious,
		captureNeed: rule.CaptureNeed(),
		idx:         make([]int, cfg.PoolSize),
		draws:       make([]intn, cfg.Client.SampleSize),
		honest:      make([]time.Duration, cfg.PoolSize-cfg.Malicious),
		// The panic sweep samples the whole pool, so sizing the attempt
		// buffer for it up front keeps the round loop allocation-free
		// (rule evaluation reorders this scratch in place).
		offsets: make([]time.Duration, 0, cfg.PoolSize),
	}
	for i := range e.idx {
		e.idx[i] = i
	}
	for i := range e.draws {
		e.draws[i] = newIntn(cfg.PoolSize - i)
	}
	// Honest servers keep small fixed clock errors, like ntpserver.Farm.
	for i := range e.honest {
		e.honest[i] = time.Duration(rng.Int63n(int64(2*honestErr))) - honestErr
	}
	if cfg.Auth != nil {
		e.authCount = int(cfg.Auth.Frac * float64(e.benign))
		if e.authCount > e.benign {
			e.authCount = e.benign
		}
		e.reqAuth = e.authCount > 0
		e.forge = SchemeForgeable(cfg.Auth.Scheme)
		e.kodDead = make([]bool, e.benign)
	}
	e.start = net.Now()
	return e
}

func (e *engine) run() (*Result, error) {
	end := e.start.Add(e.cfg.Horizon)
	for round := 1; ; round++ {
		if !e.net.Now().Before(end) {
			break
		}
		if e.cfg.MaxRounds > 0 && round > e.cfg.MaxRounds {
			break
		}
		e.round(round)
		if e.res.Shifted && (e.cfg.RunLength < 0 || e.res.RoundsToRun > 0) {
			break // every requested statistic is in
		}
		e.net.FastForward(chronos.SyncInterval)
	}
	now := e.net.Now()
	e.res.Rounds = int(e.stats.Rounds)
	e.res.Updates = int(e.stats.Updates)
	e.res.Resamples = int(e.stats.Resamples)
	e.res.Panics = int(e.stats.Panics)
	e.res.PanicUpdates = int(e.stats.PanicUpdates)
	e.res.FinalOffset = e.clk.Offset(now)
	e.res.Elapsed = now.Sub(e.start)
	return &e.res, nil
}

// round executes one sync round: fresh attempt, up to K re-samples, then
// a panic sweep — the same chronos.Round the packet client drives; the
// engine only gathers the offsets and steps the clock.
func (e *engine) round(round int) {
	rnd := e.rule.Begin(&e.stats)
	for attempt := 0; ; attempt++ {
		e.res.Attempts++
		mal := e.sample()
		if attempt == 0 {
			e.observeCapture(round, mal)
		}
		e.attemptOffsets(round, attempt, mal)
		v, act := rnd.Offer(e.offsets)
		e.net.FastForward(e.cfg.Client.QueryTimeout)
		switch act {
		case chronos.Apply:
			now := e.net.Now()
			e.clk.Step(now, v.Update)
			if v.Update > e.res.MaxPush {
				e.res.MaxPush = v.Update
			}
			e.observeClock(round, now)
			return
		case chronos.Panic:
			e.panicOffsets(round)
			v, act = rnd.Offer(e.offsets)
			e.net.FastForward(e.cfg.Client.QueryTimeout)
			if act == chronos.Apply {
				now := e.net.Now()
				e.clk.Step(now, v.Update)
				e.observeClock(round, now)
			}
			return
		}
	}
}

// sample draws m distinct pool members (partial Fisher–Yates over the
// persistent index slice) and returns how many are malicious. The drawn
// indices sit in idx[:m]; indices ≥ benign are attacker servers.
func (e *engine) sample() (malicious int) {
	rng := e.net.Rand()
	for i := range e.draws {
		j := i + e.draws[i].draw(rng)
		e.idx[i], e.idx[j] = e.idx[j], e.idx[i]
		if e.idx[i] >= e.benign {
			malicious++
		}
	}
	return malicious
}

// attemptOffsets fills e.offsets with the attempt's samples.
func (e *engine) attemptOffsets(round, attempt, mal int) {
	m := e.cfg.Client.SampleSize
	now := e.net.Now()
	theta := e.clk.Offset(now)
	if e.cfg.Auth != nil && e.cfg.Auth.Move == MoveMACStrip {
		// Full MitM: the tamperer owns every reply it lets through, so
		// the strategy sees the whole sample as captured. (Captures in
		// the Result stays the raw hypergeometric sampling statistic.)
		mal = m
	}
	plan := e.cfg.Strategy.Plan(View{
		Round: round, Attempt: attempt,
		Observed:         theta,
		SampledMalicious: mal,
		SampleSize:       m,
		CaptureNeed:      e.captureNeed,
		PoolSize:         e.cfg.PoolSize,
		PoolMalicious:    e.cfg.Malicious,
	})
	e.offsets = e.offsets[:0]
	if e.cfg.Auth == nil {
		for _, id := range e.idx[:m] {
			e.offsets = append(e.offsets, e.sampleOffset(id, theta, plan))
		}
	} else {
		for _, id := range e.idx[:m] {
			if off, ok := e.authOffset(id, theta, plan); ok {
				e.offsets = append(e.offsets, off)
			}
		}
	}
}

// sampleOffset is the offset the client computes from pool member id:
// honest servers expose their clock error against the client's, plus
// latency asymmetry; malicious servers land the strategy's plan exactly
// (the attacker compensates for path delay — it stamped the request).
func (e *engine) sampleOffset(id int, theta, plan time.Duration) time.Duration {
	if id >= e.benign {
		return plan
	}
	return -theta + e.honest[id] + drawJitter(e.net.Rand()) - jitter
}

// The engine's draws on its hot path return exactly what math/rand v1
// would, from the same Int63 calls, without a division: drawJitter is
// Int63n(2·jitter) and intn.draw is Intn(n). The stream, and so every
// golden, is the one Int63n and Intn give.

// jitterBound is the range of an honest sample's latency asymmetry, and
// jitterMax the largest Int63 value Int63n(jitterBound) keeps rather than
// drawing again. Both are constants, so the remainder compiles to a
// multiply.
const (
	jitterBound = uint64(2 * jitter)
	jitterMax   = math.MaxInt64 - (1<<63)%jitterBound
)

// drawJitter is rng.Int63n(jitterBound).
func drawJitter(rng *rand.Rand) time.Duration {
	v := uint64(rng.Int63())
	for v > jitterMax {
		v = uint64(rng.Int63())
	}
	return time.Duration(v % jitterBound)
}

// intn is rng.Intn(n) for one n in [1, 2^31−1]: Int31n's rejection
// threshold and a reciprocal that takes its remainder in two multiplies
// (Lemire's fastmod, exact for every 32-bit operand). A power-of-two n,
// which Int31n masks, keeps every Int31 value, and its remainder is the
// mask; n = 1 still consumes its one draw.
type intn struct {
	n, m uint64 // the bound and ⌊(2^64−1)/n⌋+1
	max  uint32 // the largest Int31 value Int31n(n) keeps
}

func newIntn(n int) intn {
	return intn{n: uint64(n), m: math.MaxUint64/uint64(n) + 1, max: math.MaxInt32 - (1<<31)%uint32(n)}
}

// draw is rng.Intn(d.n).
func (d *intn) draw(rng *rand.Rand) int {
	v := uint32(rng.Int63() >> 32)
	for v > d.max {
		v = uint32(rng.Int63() >> 32)
	}
	hi, _ := bits.Mul64(d.m*uint64(v), d.n)
	return int(hi)
}

// panicOffsets fills e.offsets with the panic-mode full-pool sweep.
func (e *engine) panicOffsets(round int) {
	now := e.net.Now()
	theta := e.clk.Offset(now)
	plan := e.cfg.Strategy.Plan(View{
		Round: round, Panic: true,
		Observed:         theta,
		SampledMalicious: e.cfg.Malicious,
		SampleSize:       e.cfg.PoolSize,
		CaptureNeed:      e.captureNeed,
		PoolSize:         e.cfg.PoolSize,
		PoolMalicious:    e.cfg.Malicious,
	})
	e.offsets = e.offsets[:0]
	if e.cfg.Auth == nil {
		for id := 0; id < e.cfg.PoolSize; id++ {
			e.offsets = append(e.offsets, e.sampleOffset(id, theta, plan))
		}
	} else {
		for id := 0; id < e.cfg.PoolSize; id++ {
			if off, ok := e.authOffset(id, theta, plan); ok {
				e.offsets = append(e.offsets, off)
			}
		}
	}
}

// observeCapture tracks the fresh-attempt capture-run statistic.
func (e *engine) observeCapture(round, mal int) {
	if mal >= e.captureNeed {
		e.res.Captures++
		e.streak++
	} else {
		e.streak = 0
	}
	if e.cfg.RunLength > 0 && e.res.RoundsToRun == 0 && e.streak >= e.cfg.RunLength {
		e.res.RoundsToRun = round
	}
}

// observeClock updates the shift statistics after a clock step.
func (e *engine) observeClock(round int, now time.Time) {
	off := e.clk.Offset(now)
	if a := absDur(off); a > e.res.MaxOffset {
		e.res.MaxOffset = a
	}
	if !e.res.Shifted && absDur(off) >= e.cfg.Target {
		e.res.Shifted = true
		e.res.TimeToShift = now.Sub(e.start)
		e.res.RoundsToShift = round
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

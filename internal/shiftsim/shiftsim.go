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
// Two fidelity levels share one decision core (chronos.Rule / Round):
//
//   - Compressed (default): one engine iteration per sampling attempt.
//     Pool sampling is a real without-replacement draw from the seeded
//     RNG, honest samples carry per-server clock error and latency
//     asymmetry, malicious samples follow the Strategy, and virtual time
//     advances with simnet.FastForward — an O(1) hop between rounds. The
//     attempt loop allocates nothing and the rule trims by selection
//     rather than sorting; chronosbench's shift workload (six 250k-round
//     runs on the paper's pool sizes) sustains about 2.2M simulated
//     rounds/s on two cores, so a decade-long horizon is seconds of wall
//     time.
//   - Wire (Config.Wire): a full packet-level chronos.Client against
//     ntpserver farms, with the strategy adapted through
//     ntpserver.RequestShiftStrategy. ~1000× slower; used to validate
//     that the compressed dynamics match the real loop.
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
// statistics to the closed-form model within the Monte-Carlo CI, and
// BenchmarkShiftEngine tracks the compressed path's rounds/sec — the
// throughput bar that keeps decade-scale horizons tractable — in the
// committed benchmark trajectory (bench/, gated by cmd/benchdiff).
package shiftsim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/simnet"
)

// Errors returned by Run.
var (
	ErrBadPool = errors.New("shiftsim: malicious count exceeds pool size")
	ErrBadAuth = errors.New("shiftsim: invalid auth model")
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

	HonestErr time.Duration // honest servers' max clock error; default 2 ms
	Jitter    time.Duration // per-sample latency-asymmetry half-width; default 1.5 ms

	DriftPPM float64      // client crystal skew
	Wander   clock.Wander // benign drift random walk, stepped once per round

	// Auth models the authentication arms race (see auth.go): which
	// benign servers the client holds credentials for, how strong they
	// are, and what the on-path attacker does to the auth layer. nil
	// (the default) leaves the engine bit-identical to the pre-auth
	// behaviour. Compressed mode only.
	Auth *AuthModel

	Wire bool // full packet fidelity instead of the compressed fast path
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
	// Small pools sample everything; keep the client shape consistent.
	cc := chronos.NewRule(c.Client).Config()
	if cc.SampleSize > c.PoolSize {
		cc.SampleSize = c.PoolSize
		cc.Trim = cc.SampleSize / 3
		cc.MinReplies = 2 * cc.SampleSize / 3
		cc = chronos.NewRule(cc).Config()
	}
	c.Client = cc
	if c.Target == 0 {
		c.Target = 100 * time.Millisecond
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * 24 * time.Hour
	}
	if c.RunLength == 0 {
		c.RunLength = int(math.Ceil(float64(c.Target) / float64(MaxStep(c.Client))))
	}
	if c.HonestErr == 0 {
		c.HonestErr = 2 * time.Millisecond
	}
	if c.Jitter == 0 {
		c.Jitter = 1500 * time.Microsecond
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
	// see (compressed mode only).
	MaxPush time.Duration

	// Auth-model counters, zero unless Config.Auth is set.
	AuthRejected int // samples dropped by the client's credential policy
	Demobilized  int // benign servers killed by believed forged kisses
}

// Run executes one long-horizon simulation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Malicious > cfg.PoolSize || cfg.PoolSize < 1 || cfg.Malicious < 0 {
		return nil, fmt.Errorf("%w: %d/%d", ErrBadPool, cfg.Malicious, cfg.PoolSize)
	}
	if cfg.Auth != nil {
		if err := cfg.Auth.validate(); err != nil {
			return nil, err
		}
		if cfg.Wire {
			return nil, fmt.Errorf("%w: the auth model is compressed-mode only", ErrBadAuth)
		}
	}
	if cfg.Wire {
		return runWire(cfg)
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

// engine is the compressed-mode state.
type engine struct {
	cfg    Config
	net    *simnet.Network
	clk    *clock.Clock
	rule   chronos.Rule
	benign int

	// Read once from the configuration rather than per attempt: each
	// would otherwise copy the whole Rule or Config.
	captureNeed int           // rule.CaptureNeed()
	maxStep     time.Duration // MaxStep(cfg.Client)

	honest  []time.Duration // per-benign-server clock error
	idx     []int           // sampling scratch (partial Fisher–Yates)
	offsets []time.Duration // per-attempt sample buffer

	// Auth-model state (see auth.go); zero-valued when cfg.Auth is nil.
	authCount int    // benign indices < authCount are credentialed
	reqAuth   bool   // the client drops samples it cannot verify
	kodDead   []bool // benign servers demobilized by believed kisses

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
		clk:         clock.New(net.Now(), 0, cfg.DriftPPM),
		rule:        rule,
		benign:      cfg.PoolSize - cfg.Malicious,
		captureNeed: rule.CaptureNeed(),
		maxStep:     MaxStep(cfg.Client),
		idx:         make([]int, cfg.PoolSize),
		honest:      make([]time.Duration, cfg.PoolSize-cfg.Malicious),
		// The panic sweep samples the whole pool, so sizing the attempt
		// buffer for it up front keeps the round loop allocation-free
		// (rule evaluation reorders this scratch in place).
		offsets: make([]time.Duration, 0, cfg.PoolSize),
	}
	for i := range e.idx {
		e.idx[i] = i
	}
	// Honest servers keep small fixed clock errors, like ntpserver.Farm.
	for i := range e.honest {
		e.honest[i] = time.Duration(rng.Int63n(int64(2*cfg.HonestErr))) - cfg.HonestErr
	}
	if cfg.Auth != nil {
		e.authCount = int(cfg.Auth.Frac * float64(e.benign))
		if e.authCount > e.benign {
			e.authCount = e.benign
		}
		e.reqAuth = e.authCount > 0
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
		if e.cfg.Wander.Enabled() {
			now := e.net.Now()
			e.clk.SetDrift(now, e.cfg.Wander.Next(e.net.Rand(), e.clk.DriftPPM()))
		}
		e.res.Rounds++
		e.round(round)
		// Re-check the clock at the round boundary as well: with a
		// drifting client the target can be crossed *between* accepted
		// updates (e.g. during a C2-failure stretch), which wire mode
		// would observe at the next event.
		e.observeClock(round, e.net.Now())
		if e.res.Shifted && (e.cfg.RunLength < 0 || e.res.RoundsToRun > 0) {
			break // every requested statistic is in
		}
		e.net.FastForward(e.cfg.Client.SyncInterval)
	}
	now := e.net.Now()
	e.res.FinalOffset = e.clk.Offset(now)
	e.res.Elapsed = now.Sub(e.start)
	return &e.res, nil
}

// round executes one sync round: fresh attempt, up to K re-samples, then
// a panic sweep — the same escalation the packet client walks, via the
// same chronos.Round state machine.
func (e *engine) round(round int) {
	rnd := chronos.NewRound(e.cfg.Client.Retries)
	for attempt := 0; ; attempt++ {
		e.res.Attempts++
		mal := e.sample(e.cfg.Client.SampleSize)
		if attempt == 0 {
			e.observeCapture(round, mal)
		}
		v := e.evaluateAttempt(round, attempt, mal)
		e.net.FastForward(e.cfg.Client.QueryTimeout)
		now := e.net.Now()
		switch rnd.Submit(v) {
		case chronos.Apply:
			e.clk.Step(now, v.Update)
			e.res.Updates++
			if v.Update > e.res.MaxPush {
				e.res.MaxPush = v.Update
			}
			e.observeClock(round, now)
			return
		case chronos.Resample:
			e.res.Resamples++
		case chronos.Panic:
			e.panic(round)
			return
		}
	}
}

// sample draws m distinct pool members (partial Fisher–Yates over the
// persistent index slice) and returns how many are malicious. The drawn
// indices sit in idx[:m]; indices ≥ benign are attacker servers.
func (e *engine) sample(m int) (malicious int) {
	rng := e.net.Rand()
	n := len(e.idx)
	for i := 0; i < m; i++ {
		j := i + rng.Intn(n-i)
		e.idx[i], e.idx[j] = e.idx[j], e.idx[i]
		if e.idx[i] >= e.benign {
			malicious++
		}
	}
	return malicious
}

// evaluateAttempt builds the attempt's offset samples and applies the
// Chronos rule.
func (e *engine) evaluateAttempt(round, attempt, mal int) chronos.Verdict {
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
		MaxStep:          e.maxStep,
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
	return e.rule.Evaluate(e.offsets)
}

// sampleOffset is the offset the client computes from pool member id:
// honest servers expose their clock error against the client's, plus
// latency asymmetry; malicious servers land the strategy's plan exactly
// (the attacker compensates for path delay — it stamped the request).
func (e *engine) sampleOffset(id int, theta, plan time.Duration) time.Duration {
	if id >= e.benign {
		return plan
	}
	jitter := time.Duration(0)
	if e.cfg.Jitter > 0 {
		jitter = time.Duration(e.net.Rand().Int63n(int64(2*e.cfg.Jitter))) - e.cfg.Jitter
	}
	return -theta + e.honest[id] + jitter
}

// panic runs the panic-mode full-pool sweep.
func (e *engine) panic(round int) {
	e.res.Panics++
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
		MaxStep:          e.maxStep,
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
	upd, ok := e.rule.PanicUpdate(e.offsets)
	e.net.FastForward(e.cfg.Client.QueryTimeout)
	if !ok {
		return
	}
	now = e.net.Now()
	e.clk.Step(now, upd)
	e.res.PanicUpdates++
	e.observeClock(round, now)
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

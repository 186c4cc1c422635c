// Package fleet is the population-scale engine of the reproduction: N
// shared caching resolvers, each serving a Zipf-distributed slice of a
// client population (Chronos clients running their 24-hour pool
// generation plus classic NTP clients bootstrapping once), with the
// attacker poisoning a configurable subset of the resolvers through the
// existing attack mechanisms.
//
// Where core.Scenario measures one client behind one resolver, fleet
// measures the paper's *amplification* claim: poisoning a single upstream
// resolver cache subverts every client behind it, so a handful of
// poisoned resolvers shifts time for a large fraction of the internet.
//
// The engine is sharded by resolver: every resolver and its client
// population runs on its own seeded simnet.Network, shards fan out across
// internal/runner's worker pool, and the reduction folds shard results in
// shard-index order — so a fleet run is bit-identical at any parallelism
// level. Within a shard, clients reach the resolver through the direct
// in-process handle (dnsresolver.Lookuper), keeping the per-client cost
// of a cached lookup O(1) while the resolver's upstream traffic — the
// attack surface — stays on the simulated wire.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/core"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/runner"
)

// Distribution selects how the client population fans out across the
// resolvers.
type Distribution int

const (
	// Zipf assigns clients to resolvers with weights 1/rank^s — a few
	// large shared resolvers (the 8.8.8.8s of the simulated internet) and
	// a long tail of small ones. This is the population shape that makes
	// cache poisoning amplify: the attacker poisons the biggest caches
	// first.
	Zipf Distribution = iota + 1
	// Uniform spreads clients evenly — the amplification baseline.
	Uniform
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Zipf:
		return "zipf"
	case Uniform:
		return "uniform"
	default:
		return "Distribution(?)"
	}
}

// Config parameterises a fleet run.
type Config struct {
	Seed int64

	Resolvers int // shared caching resolvers; default 10
	Clients   int // total client population; default 1000

	Distribution Distribution // fan-out shape; default Zipf
	ZipfExponent float64      // Zipf s; default 1.2
	// ClassicShare is the fraction of classic NTP clients; default 0.25.
	// Set it negative for an all-Chronos fleet (0 means "use the
	// default", like every other field here).
	ClassicShare float64

	// Poisoned is the number of resolvers the attacker goes after,
	// largest fan-out first (0 = honest baseline).
	Poisoned  int
	Mechanism core.Mechanism // default Defrag when Poisoned > 0
	// PoisonQuery is the pool-generation hour (1-based) at which the
	// attack begins, as in core.Config; default 6.
	PoisonQuery int

	PoolQueries       int           // default 24
	PoolQueryInterval time.Duration // default 1h
	BenignServers     int           // default 500
	MaliciousServers  int           // default 89

	ResolverPolicy dnsresolver.AcceptancePolicy // §V resolver mitigation
	ClientPolicy   chronos.PoolPolicy           // §V client mitigation

	// ShiftTarget/AttackHorizon parameterise the population shift metric:
	// a Chronos client counts as shifted when the long-horizon shift
	// engine (internal/shiftsim), run over the client's measured pool
	// composition, moves the clock by ShiftTarget within AttackHorizon in
	// a majority of ShiftTrials sampled runs. Defaults: 100ms / 24h / 3.
	ShiftTarget   time.Duration
	AttackHorizon time.Duration
	ShiftTrials   int

	// WireStubs switches clients from the direct resolver handle to real
	// per-lookup UDP stub exchanges (full fidelity, ~10× the events).
	WireStubs bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Resolvers <= 0 {
		c.Resolvers = 10
	}
	if c.Clients <= 0 {
		c.Clients = 1000
	}
	if c.Distribution == 0 {
		c.Distribution = Zipf
	}
	if c.ZipfExponent == 0 {
		c.ZipfExponent = 1.2
	}
	if c.ClassicShare == 0 {
		c.ClassicShare = 0.25
	}
	if c.ClassicShare < 0 {
		c.ClassicShare = 0
	}
	if c.ClassicShare > 1 {
		c.ClassicShare = 1
	}
	if c.Poisoned < 0 {
		c.Poisoned = 0
	}
	if c.Poisoned > c.Resolvers {
		c.Poisoned = c.Resolvers
	}
	if c.Mechanism == 0 {
		if c.Poisoned > 0 {
			c.Mechanism = core.Defrag
		} else {
			c.Mechanism = core.NoAttack
		}
	}
	if c.PoisonQuery == 0 {
		c.PoisonQuery = 6
	}
	if c.PoolQueries == 0 {
		c.PoolQueries = 24
	}
	if c.PoolQueryInterval == 0 {
		c.PoolQueryInterval = time.Hour
	}
	if c.BenignServers == 0 {
		c.BenignServers = 500
	}
	if c.MaliciousServers == 0 {
		c.MaliciousServers = 89
	}
	if c.ShiftTarget == 0 {
		c.ShiftTarget = 100 * time.Millisecond
	}
	if c.AttackHorizon == 0 {
		c.AttackHorizon = 24 * time.Hour
	}
	return c
}

// ErrFleet wraps fleet construction failures.
var ErrFleet = errors.New("fleet: setup")

// ErrNotBuilt is returned by Simulate when Build has not run (or the fleet
// was already consumed by a previous Simulate).
var ErrNotBuilt = errors.New("fleet: Simulate requires a successful Build first")

// Fleet separates a fleet run into its two phases so callers (benchmarks
// above all) can time them independently: Build constructs every shard's
// topology and population, Simulate advances the event loops to the
// horizon and measures. Both phases fan shards across internal/runner's
// worker pool, and shard i's work is identical whether the phases are
// interleaved (the old Run behaviour) or batched — each shard owns its
// network and RNG — so a fleet run stays bit-identical at any parallelism
// and through either entry point.
type Fleet struct {
	cfg    Config
	plans  []shardPlan
	shards []*shardState
}

// New plans a fleet from cfg (defaults applied) without constructing
// anything.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	return &Fleet{cfg: cfg, plans: plan(cfg)}
}

// Config returns the resolved configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Build constructs every shard — seeded network, backbone, resolver,
// client population, attacker schedule — across parallel workers
// (≤0 = GOMAXPROCS). No virtual time passes.
func (f *Fleet) Build(ctx context.Context, parallel int) error {
	shards := make([]*shardState, len(f.plans))
	err := runner.ForEach(ctx, len(f.plans), parallel, func(i int) error {
		s, err := buildShard(f.cfg, f.plans[i])
		if err != nil {
			return fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		shards[i] = s
		return nil
	})
	if err != nil {
		return err
	}
	f.shards = shards
	return nil
}

// batchGC relaxes the garbage collector for the simulate phase and
// returns a restore function. The phase is a bounded batch whose
// allocation behaviour is pinned by alloc-ceiling tests: the dominant
// survivors are the pools and clients themselves, so collecting at the
// default 100% heap-growth target mostly re-scans live population state.
// Doubling the target halves the number of full scans for a bounded peak
// memory increase. An explicit GOGC in the environment wins: the
// operator has already chosen a policy, and we keep our hands off.
//
// The GC percent is process-wide, so overlapping fleet runs share one
// relaxation: the first to start saves the caller's setting and the last
// to finish restores it. A plain save/restore per run would let a run
// that started second restore the first run's 200 after the first had
// already restored the original.
func batchGC() func() {
	if os.Getenv("GOGC") != "" {
		return func() {}
	}
	gcBatch.Lock()
	if gcBatch.runs == 0 {
		gcBatch.saved = debug.SetGCPercent(200)
	}
	gcBatch.runs++
	gcBatch.Unlock()
	return func() {
		gcBatch.Lock()
		if gcBatch.runs--; gcBatch.runs == 0 {
			debug.SetGCPercent(gcBatch.saved)
		}
		gcBatch.Unlock()
	}
}

// gcBatch counts the fleet runs inside batchGC and holds the GC percent
// the first of them replaced.
var gcBatch struct {
	sync.Mutex
	runs  int
	saved int
}

// Simulate runs every built shard to its horizon and reduces the
// measurements in shard-index order. The built state is consumed: call
// Build again before another Simulate.
func (f *Fleet) Simulate(ctx context.Context, parallel int) (*Result, error) {
	if f.shards == nil {
		return nil, ErrNotBuilt
	}
	defer batchGC()()
	shards := f.shards
	f.shards = nil
	results := make([]ShardResult, len(shards))
	model := newShiftModel(f.cfg)
	err := runner.ForEach(ctx, len(shards), parallel, func(i int) error {
		sr, err := shards[i].simulate(f.cfg, model)
		if err != nil {
			return fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		results[i] = *sr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reduce(f.cfg, results), nil
}

// Run executes the fleet end to end: one seeded simulation per resolver
// shard, fanned across parallel workers (≤0 = GOMAXPROCS), reduced in
// shard-index order. Same Config ⇒ bit-identical Result at any
// parallelism. Each shard is built and simulated inside one worker task,
// so peak memory holds only `parallel` live networks — use the phased
// Fleet API when setup and steady state must be separated instead.
func Run(ctx context.Context, cfg Config, parallel int) (*Result, error) {
	defer batchGC()()
	cfg = cfg.withDefaults()
	plans := plan(cfg)
	shards := make([]ShardResult, len(plans))
	model := newShiftModel(cfg)
	err := runner.ForEach(ctx, len(plans), parallel, func(i int) error {
		s, err := buildShard(cfg, plans[i])
		if err != nil {
			return fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		sr, err := s.simulate(cfg, model)
		if err != nil {
			return fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		shards[i] = *sr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reduce(cfg, shards), nil
}

// Apportion splits clients across resolvers according to the
// distribution, using the largest-remainder method so the counts sum to
// clients exactly and the assignment is deterministic. Zipf weights are
// 1/rank^s, so shard 0 is always the largest.
func Apportion(clients, resolvers int, dist Distribution, s float64) []int {
	if resolvers <= 0 {
		return nil
	}
	weights := make([]float64, resolvers)
	switch dist {
	case Uniform:
		for i := range weights {
			weights[i] = 1
		}
	default: // Zipf
		for i := range weights {
			weights[i] = 1 / math.Pow(float64(i+1), s)
		}
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, resolvers)
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, resolvers)
	assigned := 0
	for i, w := range weights {
		share := float64(clients) * w / sum
		counts[i] = int(share)
		assigned += counts[i]
		fracs[i] = frac{idx: i, rem: share - float64(counts[i])}
	}
	// Hand the leftover clients to the largest fractional remainders,
	// breaking ties toward lower shard indices (stable insertion sort —
	// resolver counts are small).
	for i := 1; i < len(fracs); i++ {
		for j := i; j > 0 && fracs[j].rem > fracs[j-1].rem; j-- {
			fracs[j], fracs[j-1] = fracs[j-1], fracs[j]
		}
	}
	for k := 0; k < clients-assigned; k++ {
		counts[fracs[k%len(fracs)].idx]++
	}
	return counts
}

// shardPlan is the deterministic work order for one resolver shard.
type shardPlan struct {
	index    int
	seed     int64
	clients  int
	chronos  int
	classic  int
	poisoned bool
}

// plan expands a resolved Config into its shard plans.
func plan(cfg Config) []shardPlan {
	counts := Apportion(cfg.Clients, cfg.Resolvers, cfg.Distribution, cfg.ZipfExponent)
	plans := make([]shardPlan, len(counts))
	for i, n := range counts {
		classic := int(float64(n)*cfg.ClassicShare + 0.5)
		plans[i] = shardPlan{
			index: i,
			// Decorrelate shard RNG streams: consecutive seeds would
			// reuse simnet's rand streams across shards of adjacent
			// fleet seeds.
			seed:     cfg.Seed*1_000_003 + int64(i)*7919 + 1,
			clients:  n,
			chronos:  n - classic,
			classic:  classic,
			poisoned: i < cfg.Poisoned,
		}
	}
	return plans
}

// ShardResult is one resolver shard's measurement.
type ShardResult struct {
	Shard    int
	Poisoned bool // targeted by the attacker
	Planted  bool // attack chain verified successful

	Clients int
	Chronos int
	Classic int

	// ChronosSubverted counts Chronos clients whose generated pool ended
	// ≥ 1/3 malicious — the boundary past which the NDSS'18 security
	// proof no longer applies.
	ChronosSubverted int
	// ChronosShifted counts Chronos clients the attacker can move by
	// ShiftTarget within AttackHorizon (sampled empirically: shiftsim
	// greedy runs over the client's actual pool composition).
	ChronosShifted int
	// ClassicSubverted counts classic clients that bootstrapped a
	// majority-malicious server set; such a client follows the attacker
	// immediately, so it is also counted as shifted.
	ClassicSubverted int

	// SumAttackerFraction accumulates the per-Chronos-client attacker
	// pool fraction (divide by Chronos for the shard mean).
	SumAttackerFraction float64

	ResolverStats dnsresolver.Stats
}

// Result is a fleet run's aggregate.
type Result struct {
	Config Config // resolved configuration
	Shards []ShardResult

	TotalClients   int
	ChronosClients int
	ClassicClients int

	PoisonedResolvers int // targeted
	PlantedResolvers  int // verified poisoned

	SubvertedClients  int     // Chronos ≥ 1/3 pools + classic majority bootstraps
	ShiftedClients    int     // movable beyond ShiftTarget within AttackHorizon
	SubvertedFraction float64 // SubvertedClients / TotalClients
	ShiftedFraction   float64
	// Amplification is the paper's population lever: clients subverted
	// per poisoned resolver (0 when no resolver is attacked).
	Amplification float64

	MeanAttackerFraction float64 // across all Chronos clients
}

// reduce folds shard results in shard-index order.
func reduce(cfg Config, shards []ShardResult) *Result {
	r := &Result{Config: cfg, Shards: shards}
	var fracSum float64
	for _, s := range shards {
		r.TotalClients += s.Clients
		r.ChronosClients += s.Chronos
		r.ClassicClients += s.Classic
		if s.Poisoned {
			r.PoisonedResolvers++
		}
		if s.Planted {
			r.PlantedResolvers++
		}
		r.SubvertedClients += s.ChronosSubverted + s.ClassicSubverted
		r.ShiftedClients += s.ChronosShifted + s.ClassicSubverted
		fracSum += s.SumAttackerFraction
	}
	if r.TotalClients > 0 {
		r.SubvertedFraction = float64(r.SubvertedClients) / float64(r.TotalClients)
		r.ShiftedFraction = float64(r.ShiftedClients) / float64(r.TotalClients)
	}
	if r.ChronosClients > 0 {
		r.MeanAttackerFraction = fracSum / float64(r.ChronosClients)
	}
	if r.PoisonedResolvers > 0 {
		r.Amplification = float64(r.SubvertedClients) / float64(r.PoisonedResolvers)
	}
	return r
}

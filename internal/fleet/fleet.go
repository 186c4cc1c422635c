// Package fleet is the population-scale engine of the reproduction: N
// shared caching resolvers, each serving a Zipf-distributed slice of a
// client population (Chronos clients running their 24-hour pool
// generation plus classic NTP clients bootstrapping once), with the
// attacker poisoning a configurable subset of the resolvers by IP
// fragmentation (core.Defrag).
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
// level. RunAll runs a grid of fleets on one pool and simulates each
// distinct shard of the grid once. Within a shard, clients reach the
// resolver through the direct in-process handle (dnsresolver.Lookuper),
// keeping the per-client cost of a cached lookup O(1) while the
// resolver's upstream traffic — the attack surface — stays on the
// simulated wire.
//
// A shard's clients are pointer-free rows of two chronos.Populations, one
// row engine driving both: the Chronos clients, whose schedule issues
// every row's hourly pool queries, and the classic clients, a one-query
// population that keeps the first ntpclient.DefaultMaxServers addresses
// of its one bootstrap. A population keeps each distinct pool once, so
// rows that absorb the same responses share a pool state and the merge
// runs once per distinct state and response. Each schedule gives every
// query the place in the event order the client's own timer would have
// had, so a shard simulates exactly what per-client objects would.
// Populations are never shared across shards.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"chronosntp/internal/chronos"
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

// Config parameterises a fleet run. A quarter of each shard's clients
// are classic NTP clients, and Zipf fan-out weights the resolver of rank
// r by 1/r^1.2. A Chronos client counts as shifted when the long-horizon
// shift engine (internal/shiftsim), run over the client's measured pool
// composition, moves its clock by 100 ms within 24 h in a majority of 3
// greedy runs. Each shard memoizes these verdicts itself; a verdict is a
// pure function of the fleet seed and the composition, so shards share
// no state.
type Config struct {
	Seed int64

	Resolvers int // shared caching resolvers; default 10
	Clients   int // total client population; default 1000

	Distribution Distribution // fan-out shape; default Zipf

	// Poisoned is the number of resolvers the attacker goes after,
	// largest fan-out first (0 = honest baseline), by IP-fragment
	// poisoning (core.Defrag).
	Poisoned int
	// PoisonQuery is the pool-generation hour (1-based) at which the
	// attack begins, as in core.Config; default 6.
	PoisonQuery int

	PoolQueries      int // default chronos.DefaultPoolQueries
	BenignServers    int // default 500
	MaliciousServers int // default 89

	ResolverCaps bool // §V caps at every resolver (dnsresolver.Config.Caps)
	ClientCaps   bool // §V caps at every Chronos client (chronos.Config.Caps)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Resolvers == 0 {
		c.Resolvers = 10
	}
	if c.Clients == 0 {
		c.Clients = 1000
	}
	if c.Distribution == 0 {
		c.Distribution = Zipf
	}
	if c.PoisonQuery == 0 {
		c.PoisonQuery = 6
	}
	if c.PoolQueries == 0 {
		c.PoolQueries = chronos.DefaultPoolQueries
	}
	if c.BenignServers == 0 {
		c.BenignServers = 500
	}
	if c.MaliciousServers == 0 {
		c.MaliciousServers = 89
	}
	return c
}

// Validate reports whether a fleet can be built from c. Zero fields take
// their defaults first; what no shard can be built from, or only by
// clamping a value into range, fails with ErrFleet: negative counts and
// values that do not fit one another.
func (c Config) Validate() error {
	c = c.withDefaults()
	for _, f := range []struct {
		name string
		n    int
	}{
		{"Clients", c.Clients}, {"Resolvers", c.Resolvers}, {"Poisoned", c.Poisoned},
		{"PoolQueries", c.PoolQueries}, {"BenignServers", c.BenignServers}, {"MaliciousServers", c.MaliciousServers},
	} {
		if f.n < 0 {
			return fmt.Errorf("%w: negative %s %d", ErrFleet, f.name, f.n)
		}
	}
	switch {
	case c.Distribution != Zipf && c.Distribution != Uniform:
		return fmt.Errorf("%w: unknown Distribution %d", ErrFleet, int(c.Distribution))
	case c.Poisoned > c.Resolvers:
		return fmt.Errorf("%w: Poisoned %d of %d resolvers", ErrFleet, c.Poisoned, c.Resolvers)
	case c.Poisoned > 0 && (c.PoisonQuery < 1 || c.PoisonQuery > c.PoolQueries):
		return fmt.Errorf("%w: PoisonQuery %d outside 1..%d", ErrFleet, c.PoisonQuery, c.PoolQueries)
	}
	return nil
}

// The fleet's fixed population shape and shift metric (see Config).
const (
	zipfExponent  = 1.2
	classicShare  = 0.25
	shiftTarget   = 100 * time.Millisecond
	attackHorizon = 24 * time.Hour
	shiftTrials   = 3
)

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
// interleaved (as in RunAll) or batched — each shard owns its
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

// Build constructs every shard — seeded network, backbone, resolver,
// client population, attacker schedule — across parallel workers
// (≤0 = GOMAXPROCS). No virtual time passes. A configuration no shard
// can be built from fails with ErrFleet.
func (f *Fleet) Build(ctx context.Context, parallel int) error {
	if err := f.cfg.Validate(); err != nil {
		return err
	}
	shards, err := runner.Map(ctx, len(f.plans), parallel, nil, func(i int) (*shardState, error) {
		s, err := buildShard(f.cfg, f.plans[i])
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		return s, nil
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
// survivors are the pool states and the shard networks themselves, so
// collecting at the default 100% heap-growth target mostly re-scans live
// state. Doubling the target halves the number of full scans for a
// bounded peak memory increase; without it, chronosbench's fleet workload
// (2 vCPUs) lost 1.6–11% of its throughput in three paired runs. An explicit
// GOGC in the environment wins: the operator has already chosen a
// policy, and we keep our hands off.
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
	results, err := runner.Map(ctx, len(shards), parallel, nil, func(i int) (ShardResult, error) {
		return shards[i].simulate(f.cfg), nil
	})
	if err != nil {
		return nil, err
	}
	return reduce(f.cfg, results), nil
}

// Run executes one fleet end to end: RunAll of the one config.
func Run(ctx context.Context, cfg Config, parallel int) (*Result, error) {
	res, err := RunAll(ctx, []Config{cfg}, parallel)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunAll executes a grid of fleets end to end and returns each config's
// Result, in config order, as the config would have alone. Every config
// is resolved and validated before any shard runs. Shards that key alike
// across the grid (see shardKey) are one job, built and simulated once
// inside one task of one worker pool (≤0 = GOMAXPROCS), so peak memory
// holds only `parallel` live networks. Each Result is reduced in
// shard-index order: bit-identical at any parallelism. Use the phased
// Fleet API when setup and steady state must be separated instead.
func RunAll(ctx context.Context, cfgs []Config, parallel int) ([]*Result, error) {
	cfgs = slices.Clone(cfgs)
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		cfgs[i] = cfgs[i].withDefaults()
	}
	jobs, slots := schedule(cfgs)
	defer batchGC()()
	done, err := runner.Map(ctx, len(jobs), parallel, nil, func(j int) (ShardResult, error) {
		k := jobs[j].key
		s, err := buildShard(k.cfg, k.plan)
		if err != nil {
			return ShardResult{}, fmt.Errorf("fleet: config %d shard %d: %w", jobs[j].cfg, k.plan.index, err)
		}
		return s.simulate(k.cfg), nil
	})
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(cfgs))
	for c, cfg := range cfgs {
		shards := make([]ShardResult, len(slots[c]))
		for i, j := range slots[c] {
			shards[i] = done[j]
		}
		results[c] = reduce(cfg, shards)
	}
	return results, nil
}

// shardKey is everything a shard's simulation reads: its plan, and its
// config without the fields only planning reads. A shard never reads how
// many other shards are poisoned, and an unpoisoned shard installs no
// attacker, so it drops the attack fields too and is one job for every
// fleet that differs only in whom the attacker goes after. Jobs are built
// from their keys, never from a caller's config, so a shard reads nothing
// its key does not hold. The key is a map key: a Config field that is not
// comparable breaks the build.
type shardKey struct {
	cfg  Config
	plan shardPlan
}

func keyOf(cfg Config, p shardPlan) shardKey {
	cfg.Clients, cfg.Resolvers, cfg.Distribution, cfg.Poisoned = 0, 0, 0, 0
	if !p.poisoned {
		cfg.PoisonQuery = 0
	}
	return shardKey{cfg: cfg, plan: p}
}

// shardJob is one distinct shard of a grid, and the first config that
// plans it.
type shardJob struct {
	key shardKey
	cfg int
}

// schedule plans every resolved config and lists each distinct shard once,
// in the order the grid first plans it. slots[c][i] is the job of config
// c's shard i. The memo lives only as long as the call: library code keeps
// no process-wide state.
func schedule(cfgs []Config) (jobs []shardJob, slots [][]int) {
	seen := make(map[shardKey]int)
	slots = make([][]int, len(cfgs))
	for c, cfg := range cfgs {
		for _, p := range plan(cfg) {
			k := keyOf(cfg, p)
			j, ok := seen[k]
			if !ok {
				j = len(jobs)
				seen[k] = j
				jobs = append(jobs, shardJob{key: k, cfg: c})
			}
			slots[c] = append(slots[c], j)
		}
	}
	return jobs, slots
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
	counts := Apportion(cfg.Clients, cfg.Resolvers, cfg.Distribution, zipfExponent)
	plans := make([]shardPlan, len(counts))
	for i, n := range counts {
		classic := int(float64(n)*classicShare + 0.5)
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
	// 100 ms within 24 h (sampled empirically: shiftsim greedy runs over
	// the client's actual pool composition).
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
	ShiftedClients    int     // movable beyond 100 ms within 24 h
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

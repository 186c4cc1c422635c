package eval

import (
	"context"
	"math/rand"
	"time"

	"chronosntp/internal/analysis"
	"chronosntp/internal/core"
	"chronosntp/internal/runner"
)

// The scenario-backed experiments (E1, E2, E5, E6, E7, E8) are Monte-Carlo
// runs: `trials` independently seeded replicas of every scenario are fanned
// across `parallel` workers by internal/runner, and each reported number is
// the mean ± 95% CI across the replicas. trials = 1 reproduces the original
// single-seed tables verbatim; the aggregates are bit-identical at any
// parallelism.
//
// Every experiment returns a typed *Result (Meta + payload); the text
// table is derived from the payload by Result.Table, so the JSON form and
// the rendered table can never diverge.

// runScenarios runs every config on the worker pool and returns the
// results in config order.
func runScenarios(cfgs []core.Config, parallel int) ([]*core.Result, error) {
	return runner.Map(context.Background(), len(cfgs), parallel, nil,
		func(i int) (*core.Result, error) { return core.Run(cfgs[i]) })
}

// Figure1 reproduces the paper's Figure 1: the Chronos pool composition
// across the 24 hourly pool-generation queries with the defragmentation
// poisoning landing at query 12. Paper: 44 benign + 89 malicious ⇒ the
// attacker holds a 2/3 majority.
func Figure1(seed int64, trials, parallel int) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	cfgs := make([]core.Config, trials)
	for k := range cfgs {
		cfgs[k] = core.Config{Seed: seed + int64(k), Mechanism: core.Defrag, PoisonQuery: 12}
	}
	results, err := runScenarios(cfgs, parallel)
	if err != nil {
		return nil, err
	}
	p := &Figure1Payload{Mechanism: results[0].Mechanism.String(), PoisonQuery: 12}
	for q := range results[0].PerQuery {
		p.Queries = append(p.Queries, QueryAggregate{
			Query:     q + 1,
			Benign:    summarize(results, func(r *core.Result) float64 { return float64(r.PerQuery[q].Benign) }),
			Malicious: summarize(results, func(r *core.Result) float64 { return float64(r.PerQuery[q].Malicious) }),
			Fraction:  summarize(results, func(r *core.Result) float64 { return r.PerQuery[q].Fraction() }),
		})
	}
	p.Final = PoolAggregate{
		Benign:    summarize(results, poolBenign),
		Malicious: summarize(results, poolMalicious),
		Fraction:  summarize(results, attackerFraction),
	}
	p.Planted = summarize(results, func(r *core.Result) float64 {
		if r.PoisonPlanted {
			return 1
		}
		return 0
	})
	return &Result{Meta: newMeta("E1", seed, trials), Payload: p}, nil
}

// AttackWindow reproduces the §IV claim that poisoning any of the first 12
// queries leaves the attacker with ≥ 2/3 of the pool: an analytical sweep
// over the poisoned query index plus simulated spot checks.
func AttackWindow(seed int64, trials, parallel int) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	spot := []int{1, 6, 12, 13, 18, 24}
	var cfgs []core.Config
	for _, q := range spot {
		for k := 0; k < trials; k++ {
			cfgs = append(cfgs, core.Config{
				Seed: seed + int64(q) + int64(k), Mechanism: core.Defrag, PoisonQuery: q,
			})
		}
	}
	results, err := runScenarios(cfgs, parallel)
	if err != nil {
		return nil, err
	}
	p := &AttackWindowPayload{Window: 24, PerResponse: 4, Injected: 89}
	for j, q := range spot {
		p.Simulated = append(p.Simulated, SimulatedFraction{
			Query: q, Fraction: summarize(results[j*trials:(j+1)*trials], attackerFraction),
		})
	}
	return &Result{Meta: newMeta("E2", seed, trials), Payload: p}, nil
}

// MaxAddresses reproduces the §IV claim "up to 89 [addresses] for a single
// non-fragmented DNS response", straight from the wire encoder.
func MaxAddresses() (*Result, error) {
	rows, err := analysis.RecordCapacityTable(core.PoolName)
	if err != nil {
		return nil, err
	}
	p := &CapacityPayload{}
	for _, r := range rows {
		p.Rows = append(p.Rows, CapacityRow{Payload: r.Payload, EDNS: r.EDNS, Records: r.Records})
	}
	return &Result{Meta: newMeta("E3", 0, 0), Payload: p}, nil
}

// ChronosSecurity reproduces the §III claim that "to shift time on a
// Chronos NTP client by 100ms a strong MitM attacker would need 20 years
// of effort", and its collapse once DNS poisoning hands the attacker ≥ 2/3
// of the pool. Closed form, with a Monte-Carlo cross-check where feasible.
func ChronosSecurity() (*Result, error) {
	const (
		m        = 15
		d        = 5
		target   = 100 * time.Millisecond
		step     = 25 * time.Millisecond
		interval = time.Hour
	)
	cases := []struct{ pool, mal int }{
		{500, 50},  // 10% MitM
		{500, 125}, // 25%
		{500, 166}, // the 1/3 boundary the Chronos proof assumes
		{133, 67},  // half
		{133, 89},  // the paper's poisoned pool (≥ 2/3)
	}
	p := &SecurityBoundPayload{}
	for _, c := range cases {
		st, err := analysis.YearsToShift(c.pool, c.mal, m, d, target, step, interval)
		if err != nil {
			return nil, err
		}
		p.Rows = append(p.Rows, SecurityBoundRow{
			Pool: c.pool, Malicious: c.mal,
			WinProb: Float(st.WinProb), ConsecutiveWins: st.ConsecutiveWins,
			Expected: st.Expected, Years: Float(st.Years),
		})
	}
	// Monte-Carlo cross-check in the fast (poisoned) regime.
	rng := rand.New(rand.NewSource(11))
	mc := analysis.SimulateRoundsToShift(rng, 133, 89, m, d, 4, 300)
	cf, err := analysis.YearsToShift(133, 89, m, d, target, step, interval)
	if err != nil {
		return nil, err
	}
	p.PoisonedExpectedRounds = Float(cf.ExpectedRounds)
	p.MonteCarloRounds = Float(mc)
	return &Result{Meta: newMeta("E4", 0, 0), Payload: p}, nil
}

// TimeShift reproduces the end-to-end contrast: the clock error reached on
// a Chronos client with an honest pool, a Chronos client with the poisoned
// pool, and a classic ≤4-server NTP client bootstrapped from the poisoned
// resolver.
func TimeShift(seed int64, trials, parallel int) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	cfgs := make([]core.Config, 2*trials)
	for k := 0; k < trials; k++ {
		cfgs[k] = core.Config{Seed: seed + 2*int64(k), SyncDuration: 2 * time.Hour}
		cfgs[trials+k] = core.Config{
			Seed: seed + 1 + 2*int64(k), Mechanism: core.Defrag, PoisonQuery: 12,
			SyncDuration: 2 * time.Hour, RunPlainNTP: true,
		}
	}
	results, err := runScenarios(cfgs, parallel)
	if err != nil {
		return nil, err
	}
	honest, poisoned := results[:trials], results[trials:]
	offset := func(r *core.Result) float64 { return float64(r.ChronosOffset) }
	maxOffset := func(r *core.Result) float64 { return float64(r.ChronosMaxOffset) }
	p := &TimeShiftPayload{
		HonestFinal:   summarize(honest, offset),
		HonestMax:     summarize(honest, maxOffset),
		PoisonedFinal: summarize(poisoned, offset),
		PoisonedMax:   summarize(poisoned, maxOffset),
		PlainFinal:    summarize(poisoned, func(r *core.Result) float64 { return float64(r.PlainOffset) }),
		Updates:       summarize(poisoned, func(r *core.Result) float64 { return float64(r.ChronosStats.Updates) }),
		Resamples:     summarize(poisoned, func(r *core.Result) float64 { return float64(r.ChronosStats.Resamples) }),
		Panics:        summarize(poisoned, func(r *core.Result) float64 { return float64(r.ChronosStats.Panics) }),
	}
	return &Result{Meta: newMeta("E6", seed, trials), Payload: p}, nil
}

// MitigationToggles are the §V defence settings as runner grid toggles:
// none, the paper's resolver- and client-side caps, multi-resolver
// consensus, and the persistent-hijack residual case that defeats them all.
func MitigationToggles() []runner.Toggle {
	return []runner.Toggle{
		runner.NoToggle(),
		{Name: "resolver-caps", Apply: func(c *core.Config) {
			c.ResolverCaps = true
		}},
		{Name: "client-caps", Apply: func(c *core.Config) {
			c.ClientCaps = true
		}},
		{Name: "consensus-3", Apply: func(c *core.Config) {
			c.Consensus = true
		}},
		{Name: "all-vs-24h-hijack", Apply: func(c *core.Config) {
			c.Mechanism = core.BGPHijackPersistent
			c.PoisonQuery = 1
			c.MaliciousServers = 120
			c.ResolverCaps = true
			c.ClientCaps = true
		}},
	}
}

// Mitigations reproduces §V: the 4-address + TTL caps stop the single-shot
// poisoning, multi-resolver consensus stops a single poisoned resolver,
// but a persistent (24 h) DNS hijack still defeats everything.
func Mitigations(seed int64, trials, parallel int) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	names := []string{
		"none (vulnerable)",
		"resolver: ≤4 addrs, TTL ≤24h",
		"client: ≤4 addrs, TTL ≤24h",
		"consensus (3 resolvers)",
		"all of the above",
	}
	toggles := MitigationToggles()
	var cfgs []core.Config
	for i, tog := range toggles {
		for k := 0; k < trials; k++ {
			cfg := core.Config{
				Seed:      seed + int64(i) + int64(len(toggles))*int64(k),
				Mechanism: core.Defrag, PoisonQuery: 12,
			}
			tog.Apply(&cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runScenarios(cfgs, parallel)
	if err != nil {
		return nil, err
	}
	p := &MitigationsPayload{}
	for i, name := range names {
		rs := results[i*trials : (i+1)*trials]
		p.Rows = append(p.Rows, MitigationRow{
			Defence: name, Mechanism: rs[0].Mechanism.String(),
			Benign: summarize(rs, poolBenign), Malicious: summarize(rs, poolMalicious), Fraction: summarize(rs, attackerFraction),
		})
	}
	return &Result{Meta: newMeta("E7", seed, trials), Payload: p}, nil
}

// All runs every experiment (E5, the measurement study, lives in
// fragstudy.go; E9, the fleet study, in fleetstudy.go — clients and
// resolvers size its population, 0 = the 1000/10 defaults; E10, the
// long-horizon shift study, in shiftstudy.go at its default target,
// horizon and full strategy sweep; E11, the authentication arms race,
// in authstudy.go at its default grid).
func All(seed int64, trials, parallel, clients, resolvers int) ([]*Result, error) {
	var out []*Result
	steps := []func() (*Result, error){
		func() (*Result, error) { return Figure1(seed, trials, parallel) },
		func() (*Result, error) { return AttackWindow(seed, trials, parallel) },
		MaxAddresses,
		ChronosSecurity,
		func() (*Result, error) { return FragmentationStudy(seed, trials, parallel) },
		func() (*Result, error) { return TimeShift(seed, trials, parallel) },
		func() (*Result, error) { return Mitigations(seed, trials, parallel) },
		func() (*Result, error) { return Ablations(seed, trials, parallel) },
		func() (*Result, error) { return FleetStudy(seed, trials, parallel, clients, resolvers) },
		func() (*Result, error) { return ShiftStudy(seed, trials, parallel, 0, 0, "all") },
		func() (*Result, error) { return AuthStudy(seed, trials, parallel, 0, 0, "all", 0) },
	}
	for _, step := range steps {
		res, err := step()
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

package eval

import (
	"context"

	"chronosntp/internal/fleet"
)

// E9's population when clients and resolvers are left at 0.
const (
	fleetStudyClients   = 1000
	fleetStudyResolvers = 10
)

// FleetStudy (E9) is the population-scale experiment: a fleet of shared
// caching resolvers with a Zipf- or uniformly-distributed client
// population (Chronos + classic), swept over the number of poisoned
// resolvers × the fan-out distribution × the §V mitigations. It measures
// the paper's amplification claim at fleet scale: the fraction of clients
// whose pool ends ≥ 1/3 malicious (the proof boundary), the fraction the
// attacker can shift beyond 100 ms within a day, and the
// cache-amplification factor (clients subverted per poisoned resolver).
//
// The whole grid, trials included, is one fleet.RunAll: each distinct
// shard is simulated once on one worker pool, and every fleet reduces in
// shard-index order, so the table is bit-identical at any parallelism.
func FleetStudy(seed int64, trials, parallel, clients, resolvers int) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	if clients == 0 {
		clients = fleetStudyClients
	}
	if resolvers == 0 {
		resolvers = fleetStudyResolvers
	}
	poisonCounts := []int{0, 1}
	if more := resolvers / 4; more > 1 {
		poisonCounts = append(poisonCounts, more)
	}
	dists := []fleet.Distribution{fleet.Zipf, fleet.Uniform}

	p := &FleetStudyPayload{Clients: clients, Resolvers: resolvers}
	var cfgs []fleet.Config
	for _, poisoned := range poisonCounts {
		for _, dist := range dists {
			for _, mitigated := range []bool{false, true} {
				p.Rows = append(p.Rows, FleetRow{Poisoned: poisoned, Distribution: dist.String(), Mitigated: mitigated})
				for k := 0; k < trials; k++ {
					cfg := fleet.Config{
						Seed:         seed + int64(k),
						Clients:      clients,
						Resolvers:    resolvers,
						Distribution: dist,
						Poisoned:     poisoned,
					}
					if mitigated {
						cfg.ResolverCaps = true
						cfg.ClientCaps = true
					}
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	results, err := fleet.RunAll(context.Background(), cfgs, parallel)
	if err != nil {
		return nil, err
	}
	for i := range p.Rows {
		var subverted, shifted, amplification, planted []float64
		for _, res := range results[i*trials : (i+1)*trials] {
			subverted = append(subverted, res.SubvertedFraction)
			shifted = append(shifted, res.ShiftedFraction)
			amplification = append(amplification, res.Amplification)
			planted = append(planted, float64(res.PlantedResolvers))
		}
		row := &p.Rows[i]
		row.Subverted = describe(subverted)
		row.Shifted = describe(shifted)
		row.Amplification = describe(amplification)
		row.Planted = describe(planted)
	}
	return &Result{Meta: newMeta("E9", seed, trials), Payload: p}, nil
}

package eval

import (
	"time"

	"chronosntp/internal/analysis"
	"chronosntp/internal/core"
)

// Ablations (E8) probes the design choices the attack depends on, each
// toggled independently:
//
//   - the forged TTL (cache pinning): without a TTL past the generation
//     horizon, benign servers keep accumulating after the poisoning;
//   - Chronos' sample size m (with d = m/3): the capture probability at
//     the poisoned pool is insensitive to m once the attacker holds ≥ 2/3;
//   - the poisoned-query index: fractions across the whole window.
//
// The scenario-backed TTL rows are Monte-Carlo runs over `trials` seeds;
// the remaining rows are closed-form.
func Ablations(seed int64, trials, parallel int) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	p := &AblationsPayload{}

	// Forged-TTL pinning.
	ttls := []time.Duration{7 * 24 * time.Hour, 150 * time.Second}
	var cfgs []core.Config
	for _, ttl := range ttls {
		for k := 0; k < trials; k++ {
			cfgs = append(cfgs, core.Config{
				Seed: seed + int64(k), Mechanism: core.Defrag, PoisonQuery: 6, ForgedTTL: ttl,
			})
		}
	}
	results, err := runScenarios(cfgs, parallel)
	if err != nil {
		return nil, err
	}
	for i, ttl := range ttls {
		rs := results[i*trials : (i+1)*trials]
		p.TTL = append(p.TTL, TTLAblation{
			TTL:    ttl,
			Benign: summarize(rs, poolBenign), Malicious: summarize(rs, poolMalicious), Fraction: summarize(rs, attackerFraction),
		})
	}

	// Sample-size sensitivity at the poisoned pool.
	for _, m := range []int{9, 15, 27} {
		p.SampleSizes = append(p.SampleSizes, SampleSizeAblation{
			SampleSize:  m,
			Trim:        m / 3,
			CaptureProb: Float(analysis.RoundWinProb(133, 89, m, m/3)),
		})
	}

	// Capture probability across attacker fractions for fixed m.
	for _, mal := range []int{30, 60, 89, 120} {
		pool := 44 + mal
		p.Injections = append(p.Injections, InjectionAblation{
			Malicious: mal, Pool: pool,
			Fraction:    Float(float64(mal) / float64(pool)),
			CaptureProb: Float(analysis.RoundWinProb(pool, mal, 15, 5)),
		})
	}

	return &Result{Meta: newMeta("E8", seed, trials), Payload: p}, nil
}

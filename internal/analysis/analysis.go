// Package analysis reproduces the paper's closed-form results:
//
//   - the pool-composition arithmetic behind Figure 1 ("44 benign and 89
//     malicious NTP servers, which is a 2/3 majority for the attacker")
//     and the §IV bound ("if the cache-poisoning attack succeeds until or
//     during the 12th DNS request, the attacker still controls more than
//     2/3 of the addresses");
//   - the forged-response capacity ("up to 89 for a single non-fragmented
//     DNS response");
//   - Chronos' original security bound ("to shift time on a Chronos NTP
//     client by 100ms a strong MitM attacker would need 20 years of
//     effort") and its collapse once the attacker crosses the ⅓ / ⅔
//     pool-fraction thresholds.
package analysis

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/stats"
)

// PoolComposition is the state of a Chronos pool after generation with a
// poisoning event at a given query index.
type PoolComposition struct {
	PoisonQuery int     // 1-based query index at which poisoning succeeded; 0 = never
	Benign      int     // benign addresses accumulated
	Malicious   int     // attacker addresses injected
	Fraction    float64 // attacker share of the pool
}

// ComposePool computes the pool composition when the attacker's forged
// response (injected addresses, TTL > generation horizon) lands at query
// poisonQuery out of totalQueries, with perResponse benign addresses per
// clean query. Queries after the poisoning are answered from cache and
// contribute nothing (the TTL pinning). poisonQuery 0 means no attack.
//
// This is the model behind Figure 1: ComposePool(12, 24, 4, 89) yields 44
// benign + 89 malicious ≈ 66.9 % ≥ 2/3.
func ComposePool(poisonQuery, totalQueries, perResponse, injected int) PoolComposition {
	if poisonQuery <= 0 || poisonQuery > totalQueries {
		return PoolComposition{Benign: perResponse * totalQueries}
	}
	benign := perResponse * (poisonQuery - 1)
	total := benign + injected
	frac := 0.0
	if total > 0 {
		frac = float64(injected) / float64(total)
	}
	return PoolComposition{
		PoisonQuery: poisonQuery,
		Benign:      benign,
		Malicious:   injected,
		Fraction:    frac,
	}
}

// MaxPoisonQuery returns the largest query index at which poisoning still
// leaves the attacker with at least threshold of the pool. For the paper's
// parameters (4 per response, 89 injected, threshold 2/3) this is 12.
func MaxPoisonQuery(totalQueries, perResponse, injected int, threshold float64) int {
	best := 0
	for q := 1; q <= totalQueries; q++ {
		if ComposePool(q, totalQueries, perResponse, injected).Fraction >= threshold {
			best = q
		}
	}
	return best
}

// CaptureThreshold is the sample fraction an attacker must reach for
// Chronos' trimmed mean to be fully attacker-controlled: with trim d =
// m/3, all survivors are malicious iff the attacker holds at least
// m − d = ⌈2m/3⌉ of the m samples.
func CaptureThreshold(sampleSize, trim int) int { return sampleSize - trim }

// RoundWinProb returns the probability that one Chronos sampling round is
// fully captured: drawing at least (m − d) attacker servers when sampling
// m of a pool of poolSize containing malicious attacker servers
// (hypergeometric tail).
func RoundWinProb(poolSize, malicious, sampleSize, trim int) float64 {
	return stats.HypergeomTail(poolSize, malicious, sampleSize, CaptureThreshold(sampleSize, trim))
}

// ErrBadParams reports invalid attack-time parameters.
var ErrBadParams = errors.New("analysis: invalid parameters")

// ShiftTime is the expected attacker effort to accumulate a target clock
// shift against Chronos.
type ShiftTime struct {
	WinProb         float64       // per-round full-capture probability
	ConsecutiveWins int           // rounds in a row needed (panic resets progress)
	ExpectedRounds  float64       // E[rounds] until the run of wins
	Expected        time.Duration // ExpectedRounds × round interval (saturates)
	Years           float64       // Expected in years (may be +Inf)
}

// TimeToShift computes the expected effort to shift a Chronos client by
// target when each captured round moves the clock at most perRoundStep
// (the C2 acceptance bound): the attacker needs ⌈target/perRoundStep⌉
// consecutive captured rounds, and any uncaptured round triggers Chronos'
// re-sample/panic recovery, resetting progress.
func TimeToShift(target, perRoundStep time.Duration, winProb float64, interval time.Duration) (ShiftTime, error) {
	if target <= 0 || perRoundStep <= 0 || interval <= 0 {
		return ShiftTime{}, ErrBadParams
	}
	c := int(math.Ceil(float64(target) / float64(perRoundStep)))
	rounds, err := stats.ExpectedTrialsToRun(winProb, c)
	if err != nil {
		return ShiftTime{}, err
	}
	st := ShiftTime{WinProb: winProb, ConsecutiveWins: c, ExpectedRounds: rounds}
	hours := rounds * interval.Hours()
	st.Years = hours / (24 * 365)
	if math.IsInf(rounds, 1) || rounds > float64(math.MaxInt64/int64(interval)) {
		st.Expected = time.Duration(math.MaxInt64)
	} else {
		st.Expected = time.Duration(rounds * float64(interval))
	}
	return st, nil
}

// YearsToShift is the composition used by the experiment tables: pool
// parameters in, expected attacker years out.
func YearsToShift(poolSize, malicious, sampleSize, trim int, target, perRoundStep, interval time.Duration) (ShiftTime, error) {
	p := RoundWinProb(poolSize, malicious, sampleSize, trim)
	return TimeToShift(target, perRoundStep, p, interval)
}

// SimulateRoundsToShift Monte-Carlo-samples the number of rounds until c
// consecutive captured rounds, drawing sample compositions from the
// hypergeometric pool. It cross-checks the closed form for regimes where
// simulation is feasible (large winProb).
func SimulateRoundsToShift(rng *rand.Rand, poolSize, malicious, sampleSize, trim, c, trials int) float64 {
	need := CaptureThreshold(sampleSize, trim)
	total := 0.0
	for t := 0; t < trials; t++ {
		run, n := 0, 0
		for run < c {
			n++
			if drawMalicious(rng, poolSize, malicious, sampleSize) >= need {
				run++
			} else {
				run = 0
			}
			if n > 10_000_000 {
				break // pathological regime; caller should use closed form
			}
		}
		total += float64(n)
	}
	return total / float64(trials)
}

// drawMalicious samples without replacement and counts attacker hits.
func drawMalicious(rng *rand.Rand, poolSize, malicious, sampleSize int) int {
	hits := 0
	remainingMal := malicious
	remaining := poolSize
	for i := 0; i < sampleSize; i++ {
		if rng.Intn(remaining) < remainingMal {
			hits++
			remainingMal--
		}
		remaining--
	}
	return hits
}

// OpportunityAdvantage quantifies the paper's "even easier than attacks
// against plain NTP" argument: a classic client resolves the pool name
// once (one poisoning opportunity, and success yields only ≤4 forged
// servers), while Chronos' pool generation re-queries hourly, giving the
// attacker `opportunities` tries (12 within the ≥2/3 window) — and success
// imports 89 servers.
type OpportunityAdvantage struct {
	PerAttempt    float64 // poisoning success probability per attempt
	Classic       float64 // P[classic client poisoned] = per-attempt
	Chronos       float64 // P[Chronos pool captured ≥2/3] = 1-(1-p)^opportunities
	Advantage     float64 // Chronos / Classic
	Opportunities int
}

// CompareOpportunities computes the advantage for a per-attempt poisoning
// success probability p and the number of usable Chronos queries
// (MaxPoisonQuery, 12 for the paper's parameters).
func CompareOpportunities(p float64, opportunities int) OpportunityAdvantage {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	chronos := 1 - math.Pow(1-p, float64(opportunities))
	adv := 0.0
	if p > 0 {
		adv = chronos / p
	}
	return OpportunityAdvantage{
		PerAttempt: p, Classic: p, Chronos: chronos,
		Advantage: adv, Opportunities: opportunities,
	}
}

// ForgedRecordCapacity reproduces the §IV "89" computation directly from
// the wire encoder for a set of payload sizes.
type ForgedRecordCapacity struct {
	Payload int
	EDNS    bool
	Records int
}

// RecordCapacityTable computes the forged-record capacity across standard
// payload sizes.
func RecordCapacityTable(qname string) ([]ForgedRecordCapacity, error) {
	cases := []struct {
		payload int
		edns    bool
	}{
		{dnswire.ClassicMaxUDP, false},
		{1232, true}, // DNS-flag-day recommended EDNS size
		{dnswire.EthernetMaxPayload, true},
		{4096, true},
	}
	out := make([]ForgedRecordCapacity, 0, len(cases))
	for _, c := range cases {
		n, err := dnswire.MaxARecords(qname, c.payload, c.edns)
		if err != nil {
			return nil, err
		}
		out = append(out, ForgedRecordCapacity{Payload: c.payload, EDNS: c.edns, Records: n})
	}
	return out, nil
}

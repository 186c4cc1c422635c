package wirenet

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"chronosntp/internal/chronos"
)

// Syncer drives the Chronos decision core — chronos.Rule sampling and a
// chronos.Round per sync round, the same ladder chronos.Client and the
// shiftsim engine run — over any Transport. It is the real-wire
// counterpart of chronos.Client: the same SampleIndices draw, the same
// C1/C2 acceptance, the same escalation and counters; it keeps only how
// offsets are gathered (sequential blocking exchanges) and how the clock
// is stepped (Transport.Step). One Syncer with one seed makes the
// identical sampling decisions over UDPTransport and over the simulator's
// exchange, which is what the transport-conformance tests assert.
// Exchanges are unauthenticated: the Syncer refuses a Chronos.Auth
// policy rather than ignore it.
type Syncer struct {
	tr   Transport
	pool []netip.AddrPort
	rng  *rand.Rand
	rule chronos.Rule
	cfg  chronos.Config

	correction time.Duration
	stats      chronos.Stats
}

// SyncerConfig parameterises a Syncer.
type SyncerConfig struct {
	// Pool is the generated server pool (what chronos.Client accumulates
	// over 24 hours of DNS; here it is handed in directly).
	Pool []netip.AddrPort
	// Seed feeds the sampling RNG; 0 means 1.
	Seed int64
	// Chronos carries the sample size m and QueryTimeout; zero fields
	// take the package defaults, and the rule's other parameters are
	// chronos's fixed NDSS'18 values. Auth must be nil.
	Chronos chronos.Config
}

// NewSyncer builds a Syncer over tr. It refuses an empty pool, an Auth
// policy, and a Chronos config that chronos.Config.Validate refuses.
func NewSyncer(tr Transport, cfg SyncerConfig) (*Syncer, error) {
	if len(cfg.Pool) == 0 {
		return nil, errors.New("wirenet: syncer needs a non-empty pool")
	}
	if cfg.Chronos.Auth != nil {
		return nil, errors.New("wirenet: syncer exchanges are unauthenticated; Chronos.Auth must be nil")
	}
	if err := cfg.Chronos.Validate(); err != nil {
		return nil, fmt.Errorf("wirenet: syncer: %w", err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rule := chronos.NewRule(cfg.Chronos)
	pool := make([]netip.AddrPort, len(cfg.Pool))
	copy(pool, cfg.Pool)
	return &Syncer{
		tr:   tr,
		pool: pool,
		rng:  rand.New(rand.NewSource(seed)),
		rule: rule,
		cfg:  rule.Config(),
	}, nil
}

// Config returns the effective Chronos configuration.
func (s *Syncer) Config() chronos.Config { return s.cfg }

// Stats returns an activity snapshot (the same counters chronos.Client
// keeps, minus the DNS pool-generation ones).
func (s *Syncer) Stats() chronos.Stats { return s.stats }

// Correction reports the total discipline applied to the transport's
// client clock across all rounds.
func (s *Syncer) Correction() time.Duration { return s.correction }

// RoundTrace records every decision one SyncRound made, in order — the
// evidence the conformance tests compare across transports.
type RoundTrace struct {
	Attempts []chronos.Verdict // per-attempt rule verdicts
	Actions  []chronos.Action  // per-attempt escalation decisions
	Replies  []int             // per-attempt reply counts, then the panic sweep's
	Panicked bool              // the round fell through to panic mode
	Applied  bool              // a clock correction was applied
	Update   time.Duration     // the applied correction (normal or panic path)
}

// SyncRound runs one full Chronos synchronisation round: sample m
// servers, evaluate C1/C2, re-sample up to K times on failure, then fall
// through to panic mode (query the whole pool, trust the middle third).
// Accepted updates are applied to the transport's clock via Step.
func (s *Syncer) SyncRound() RoundTrace {
	var tr RoundTrace
	round := s.rule.Begin(&s.stats)
	for {
		var idx []int
		if tr.Panicked {
			idx = make([]int, len(s.pool))
			for i := range idx {
				idx[i] = i
			}
		} else {
			idx = s.rule.SampleIndices(s.rng, len(s.pool))
		}
		offsets := s.collect(idx)
		tr.Replies = append(tr.Replies, len(offsets))
		v, act := round.Offer(offsets)
		if !tr.Panicked {
			tr.Attempts = append(tr.Attempts, v)
			tr.Actions = append(tr.Actions, act)
		}
		switch act {
		case chronos.Apply:
			s.tr.Step(v.Update)
			s.correction += v.Update
			tr.Applied, tr.Update = true, v.Update
			return tr
		case chronos.Panic:
			tr.Panicked = true
		case chronos.Skip:
			return tr
		}
	}
}

// collect queries the pool members at the given indices sequentially and
// returns the offsets of the servers that answered in time. Timeouts and
// invalid replies contribute nothing, exactly as dropped responses do in
// the simulated client.
func (s *Syncer) collect(idx []int) []time.Duration {
	offsets := make([]time.Duration, 0, len(idx))
	for _, i := range idx {
		off, err := s.tr.Exchange(s.pool[i], s.cfg.QueryTimeout)
		if err != nil {
			continue
		}
		offsets = append(offsets, off)
	}
	return offsets
}

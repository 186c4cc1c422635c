// Package core assembles the paper's contribution end to end: a simulated
// internet with a pool.ntp.org hierarchy, a shared caching resolver, a
// Chronos client running its 24-hour pool generation, a classic NTP client
// as baseline, and an off-path attacker poisoning the resolver at a chosen
// pool-generation query via defragmentation injection or a BGP prefix
// hijack.
//
// A Scenario run produces exactly the measurements the paper's Figure 1
// and §IV claims are made of: the pool's benign/malicious composition per
// query, the attacker's final pool fraction, and the time shift achieved
// against the Chronos and classic clients afterwards.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"chronosntp/internal/attack"
	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ntpclient"
	"chronosntp/internal/simnet"
)

// Mechanism selects the cache-poisoning vector.
type Mechanism int

const (
	// NoAttack runs the honest baseline.
	NoAttack Mechanism = iota + 1
	// Defrag uses IPv4 defragmentation injection against the resolver
	// (off-path; forces fragmentation, predicts IPIDs, plants
	// checksum-compensated tails rewriting referral glue).
	Defrag
	// BGPHijack intercepts the nameserver prefix on-path for a poisoning
	// window around the target query.
	BGPHijack
	// BGPHijackPersistent keeps the hijack for the whole pool-generation
	// horizon and answers every query with policy-compliant 4-record
	// responses — the residual attack that defeats the §V mitigations.
	BGPHijackPersistent
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case NoAttack:
		return "none"
	case Defrag:
		return "defrag-injection"
	case BGPHijack:
		return "bgp-hijack"
	case BGPHijackPersistent:
		return "bgp-hijack-24h"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Fixed topology addresses.
var (
	rootIP       = simnet.IPv4(198, 41, 0, 4)
	ntpOrgIP     = simnet.IPv4(198, 51, 100, 10)
	resolverBase = simnet.IPv4(10, 0, 0, 53)
	chronosIP    = simnet.IPv4(10, 0, 0, 1)
	plainIP      = simnet.IPv4(10, 0, 0, 2)
	attackerIP   = simnet.IPv4(66, 66, 0, 1)
	attackerNSIP = simnet.IPv4(66, 66, 0, 53)
	honestBase   = simnet.IPv4(203, 0, 0, 1)
	evilBase     = simnet.IPv4(66, 0, 0, 1)
)

// PoolName is the pool domain used throughout.
const PoolName = ntpclient.PoolName

// nsTTL is the delegation TTL: slightly under the hourly pool query
// spacing, so every hourly query re-walks the hierarchy — giving the
// attacker its "up to 24 tries".
const nsTTL = 3590

// Config parameterises a Scenario.
type Config struct {
	Seed int64

	MaliciousServers int // attacker NTP servers; default 89

	Mechanism   Mechanism // default NoAttack
	PoisonQuery int       // pool-generation query to poison (1-based); default 12
	ForgedTTL   time.Duration

	SyncDuration time.Duration // post-build attack phase; default 0 (skip)

	ResolverCaps bool // §V caps at the resolver (dnsresolver.Config.Caps)
	ClientCaps   bool // §V caps at the Chronos client (chronos.Config.Caps)
	Consensus    bool // pool generation through consensusResolvers resolvers with majority voting
	RunPlainNTP  bool // also run the classic client baseline
}

// consensusResolvers is how many resolvers the consensus defence votes
// over.
const consensusResolvers = 3

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaliciousServers == 0 {
		c.MaliciousServers = 89
	}
	if c.Mechanism == 0 {
		c.Mechanism = NoAttack
	}
	if c.PoisonQuery == 0 {
		c.PoisonQuery = 12
	}
	if c.ForgedTTL == 0 {
		c.ForgedTTL = attack.DefaultForgedTTL
	}
	return c
}

// maxSyncDuration is the longest sync phase whose run fits a
// time.Duration, as the network's event times must: a minute before pool
// generation, its chronos.DefaultPoolQueries queries and two minutes
// after, then the sync phase to the end of its last step. Past that, the
// sync loop's elapsed time wraps and the loop never ends.
const maxSyncDuration = math.MaxInt64 - chronos.DefaultPoolQueries*chronos.PoolQueryInterval - 3*time.Minute - chronos.SyncInterval

// Validate reports whether a scenario can be built and run from c. Zero
// fields take their defaults first; what no scenario can run, or only by
// clamping a value into range, fails with ErrScenario: negative counts and
// durations, an unknown mechanism, a poison query outside pool generation
// on an attacked scenario, a forged TTL the 32-bit TTL field cannot
// carry, and a sync phase past maxSyncDuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.MaliciousServers < 0 {
		return fmt.Errorf("%w: negative MaliciousServers %d", ErrScenario, c.MaliciousServers)
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"ForgedTTL", c.ForgedTTL}, {"SyncDuration", c.SyncDuration},
	} {
		if f.d < 0 {
			return fmt.Errorf("%w: negative %s %v", ErrScenario, f.name, f.d)
		}
	}
	switch {
	case c.Mechanism < NoAttack || c.Mechanism > BGPHijackPersistent:
		return fmt.Errorf("%w: unknown mechanism %v", ErrScenario, c.Mechanism)
	case c.Mechanism != NoAttack && (c.PoisonQuery < 1 || c.PoisonQuery > chronos.DefaultPoolQueries):
		return fmt.Errorf("%w: PoisonQuery %d outside 1..%d", ErrScenario, c.PoisonQuery, chronos.DefaultPoolQueries)
	case c.ForgedTTL/time.Second > math.MaxUint32:
		return fmt.Errorf("%w: ForgedTTL %v over the 32-bit TTL field", ErrScenario, c.ForgedTTL)
	case c.SyncDuration > maxSyncDuration:
		return fmt.Errorf("%w: SyncDuration %v over the %v a run can span", ErrScenario, c.SyncDuration, maxSyncDuration)
	}
	return nil
}

// QuerySnapshot is the pool composition after one pool-generation query —
// one point of the Figure-1 series.
type QuerySnapshot struct {
	Query     int
	Benign    int
	Malicious int
}

// Fraction returns the attacker's share at this point.
func (q QuerySnapshot) Fraction() float64 {
	total := q.Benign + q.Malicious
	if total == 0 {
		return 0
	}
	return float64(q.Malicious) / float64(total)
}

// Result is a Scenario's measurement output.
type Result struct {
	Mechanism   Mechanism
	PoisonQuery int

	PoolSize         int
	PoolBenign       int
	PoolMalicious    int
	AttackerFraction float64
	PerQuery         []QuerySnapshot // the Figure-1 series

	PoisonPlanted bool // attack chain completed (mechanism-dependent)

	ChronosOffset    time.Duration // |client − true| at the end
	ChronosMaxOffset time.Duration // peak error during the sync phase
	PlainOffset      time.Duration // classic client error (if RunPlainNTP)

	ChronosStats  chronos.Stats
	ResolverStats dnsresolver.Stats
}

// Scenario is a fully wired experiment.
type Scenario struct {
	cfg Config
	net *simnet.Network

	backbone *Backbone

	resolvers []*dnsresolver.Resolver
	chronosC  *chronos.Client
	plainC    *ntpclient.Client

	poisoner *attack.FragPoisoner
	hijacker *attack.BGPHijacker

	poisonPlanted bool
}

// ErrScenario wraps construction failures.
var ErrScenario = errors.New("core: scenario setup")

// NewScenario wires the topology. Run executes it. A config that fails
// Validate builds nothing.
func NewScenario(cfg Config) (*Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Scenario{cfg: cfg}
	s.net = simnet.New(simnet.Config{Seed: cfg.Seed})

	var err error
	s.backbone, err = BuildBackbone(s.net, BackboneConfig{MaliciousServers: cfg.MaliciousServers})
	if err != nil {
		return nil, err
	}

	// Resolvers: one by default, several for the consensus defence.
	resolverCount := 1
	if cfg.Consensus {
		resolverCount = consensusResolvers
	}
	for i := 0; i < resolverCount; i++ {
		ip := resolverBase
		ip[3] += byte(i)
		res, err := s.backbone.NewResolver(ip, cfg.ResolverCaps)
		if err != nil {
			return nil, err
		}
		s.resolvers = append(s.resolvers, res)
	}

	// Chronos client: stub against the first resolver, or a consensus
	// stub across all of them.
	chHost, err := s.net.AddHost(chronosIP)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	var lookuper chronos.Lookuper
	if cfg.Consensus {
		stubs := make([]*dnsresolver.Stub, len(s.resolvers))
		for i, r := range s.resolvers {
			stubs[i] = dnsresolver.NewStub(chHost, r.Addr(), 0)
		}
		lookuper = dnsresolver.NewConsensusStub(stubs)
	} else {
		lookuper = dnsresolver.NewStub(chHost, s.resolvers[0].Addr(), 0)
	}
	s.chronosC = chronos.New(chHost, &clock.Clock{}, lookuper, chronos.Config{Caps: cfg.ClientCaps})

	// Classic NTP client baseline.
	if cfg.RunPlainNTP {
		plHost, err := s.net.AddHost(plainIP)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrScenario, err)
		}
		stub := dnsresolver.NewStub(plHost, s.resolvers[0].Addr(), 0)
		s.plainC = ntpclient.New(plHost, &clock.Clock{}, stub)
	}

	// Attacker infrastructure.
	att, err := InstallAttacker(s.net, AttackerConfig{
		Mechanism:      cfg.Mechanism,
		Servers:        s.backbone.EvilIPs,
		ForgedTTL:      cfg.ForgedTTL,
		VictimResolver: s.resolvers[0].Addr().IP,
	})
	if err != nil {
		return nil, err
	}
	s.poisoner, s.hijacker = att.Poisoner, att.Hijacker
	return s, nil
}

// Run wires the scenario cfg describes and runs it: NewScenario, then
// Scenario.Run. It is the task of every scenario-backed Monte-Carlo
// trial.
func Run(cfg Config) (*Result, error) {
	s, err := NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Run executes pool generation (with the configured attack), then the
// synchronisation/attack phase, and returns the measurements.
func (s *Scenario) Run() (*Result, error) {
	cfg := s.cfg
	buildStart := s.net.Now().Add(time.Minute)

	// Schedule the poisoning attempt relative to the target query. Pool
	// query q fires at buildStart + (q−1)·interval; the attack lands just
	// before it (inside the resolver's 30 s reassembly window for the
	// defrag mechanism).
	if cfg.Mechanism != NoAttack {
		attackAt := buildStart.Add(time.Duration(cfg.PoisonQuery-1)*chronos.PoolQueryInterval - 20*time.Second)
		lead := attackAt.Sub(s.net.Now())
		if lead < 0 {
			lead = 0
		}
		switch cfg.Mechanism {
		case Defrag:
			s.net.After(lead, func() {
				s.poisoner.Execute(PoolName, dnswire.TypeA, func(err error) {
					s.poisonPlanted = err == nil
				})
			})
		case BGPHijack:
			// Announce around the window of the target query, withdraw
			// after it.
			s.net.After(lead, func() {
				s.hijacker.Announce()
				s.poisonPlanted = true
			})
			s.net.After(lead+40*time.Second+chronos.PoolQueryInterval/2, func() { s.hijacker.Withdraw() })
		case BGPHijackPersistent:
			s.net.After(lead, func() {
				s.hijacker.Announce()
				s.poisonPlanted = true
			})
		}
	}

	// Pool generation.
	var buildErr error
	built := false
	s.net.After(time.Minute, func() {
		s.chronosC.BuildPool(func(err error) { buildErr, built = err, true })
	})
	buildSpan := chronos.DefaultPoolQueries*chronos.PoolQueryInterval + 2*time.Minute
	s.net.Run(buildStart.Add(buildSpan))
	if !built {
		return nil, fmt.Errorf("%w: pool generation did not complete", ErrScenario)
	}
	if buildErr != nil && !errors.Is(buildErr, chronos.ErrPoolEmpty) {
		return nil, fmt.Errorf("%w: build: %v", ErrScenario, buildErr)
	}

	res := &Result{
		Mechanism:   cfg.Mechanism,
		PoisonQuery: cfg.PoisonQuery,
	}
	if cfg.Mechanism == NoAttack {
		res.PoisonQuery = 0
	}
	res.PoisonPlanted = s.poisonPlanted

	// Pool composition and the per-query Figure-1 series.
	entries := s.chronosC.Pool()
	res.PoolSize = len(entries)
	perQuery := make([]QuerySnapshot, chronos.DefaultPoolQueries)
	for i := range perQuery {
		perQuery[i].Query = i + 1
	}
	for _, e := range entries {
		evil := s.backbone.IsMalicious(e.IP)
		if evil {
			res.PoolMalicious++
		} else {
			res.PoolBenign++
		}
		for q := e.QueryIdx; q <= chronos.DefaultPoolQueries; q++ {
			if evil {
				perQuery[q-1].Malicious++
			} else {
				perQuery[q-1].Benign++
			}
		}
	}
	if res.PoolSize > 0 {
		res.AttackerFraction = float64(res.PoolMalicious) / float64(res.PoolSize)
	}
	res.PerQuery = perQuery

	// Synchronisation phase: malicious servers begin their ramp; the
	// classic client bootstraps now (its single DNS resolution served
	// from whatever the shared cache holds).
	if cfg.SyncDuration > 0 && res.PoolSize > 0 {
		s.backbone.StartRamp()
		if s.plainC != nil {
			s.plainC.Start(nil)
		}
		// Track the peak Chronos error. Scenario clients are zero-drift,
		// so the offset only changes when an event runs: steps that
		// FastForward across idle air (between NTP polls, most of them)
		// skip the resample, compressing the sync loop to O(events)
		// instead of O(steps).
		var maxOff time.Duration
		for elapsed := time.Duration(0); elapsed < cfg.SyncDuration; elapsed += chronos.SyncInterval {
			if s.net.FastForward(chronos.SyncInterval) == 0 {
				continue
			}
			if off := absDur(s.chronosC.Offset()); off > maxOff {
				maxOff = off
			}
		}
		res.ChronosMaxOffset = maxOff
	}
	res.ChronosOffset = absDur(s.chronosC.Offset())
	if s.plainC != nil {
		res.PlainOffset = absDur(s.plainC.Offset())
	}
	res.ChronosStats = s.chronosC.Stats()
	res.ResolverStats = s.resolvers[0].Stats()
	return res, nil
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

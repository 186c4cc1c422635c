package fleet

import (
	"math/rand"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/core"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ntpclient"
	"chronosntp/internal/shiftsim"
	"chronosntp/internal/simnet"
)

// Per-shard topology addresses. Every shard is its own network, so the
// fixed addresses never collide.
var (
	shardResolverIP = simnet.IPv4(10, 0, 0, 53)
	shardClientIP   = simnet.IPv4(10, 0, 1, 1)
)

// rearmInterval is the cadence of the Defrag attacker's probe→plant cycle
// while armed: shorter than the 30 s reassembly lifetime, so a spoofed
// tail is always pending when the resolver's hourly delegation re-walk
// finally happens.
const rearmInterval = 25 * time.Second

// shardState is one fully constructed resolver shard, ready to simulate:
// the seeded network with every client row, attacker action and the
// horizon already scheduled, plus the handles the measurement pass reads.
type shardState struct {
	plan     shardPlan
	net      *simnet.Network
	bb       *core.Backbone
	resolver *dnsresolver.Resolver // the clients' resolver, handed to them directly
	host     *simnet.Host          // the clients' host
	epoch    time.Time             // earliest client start
	end      time.Time             // horizon
	pop      *chronos.Population   // Chronos clients
	classic  *chronos.Population   // classic clients
	att      *core.Attacker
}

// shifted reports whether an attacker holding malicious of a poolSize
// Chronos pool moves the client by shiftTarget within attackHorizon. The
// answer is sampled empirically with the long-horizon shift engine —
// shiftTrials greedy runs of the real round loop, majority vote —
// instead of assumed from the closed form. The runs are seeded from the
// fleet seed and the composition alone, never the shard, so every shard
// that asks reaches the same verdict.
func shifted(seed int64, poolSize, malicious int) bool {
	rs, err := shiftsim.Sample(shiftsim.Config{
		PoolSize:  poolSize,
		Malicious: malicious,
		Target:    shiftTarget,
		Horizon:   attackHorizon,
		RunLength: -1,
	}, seed*1_000_003+int64(poolSize)*104_729+int64(malicious)*7919+17, shiftTrials)
	if err != nil {
		return false
	}
	hits := 0
	for _, r := range rs {
		if r.Shifted {
			hits++
		}
	}
	return 2*hits > shiftTrials
}

// buildShard constructs one resolver shard: topology, client rows and
// attacker, with every action scheduled on the shard's own seeded network.
// No virtual time passes here — the returned state is the t=0 snapshot
// that simulate advances.
func buildShard(cfg Config, p shardPlan) (*shardState, error) {
	s, err := newShard(cfg, p)
	if err != nil {
		return nil, err
	}
	chronosStarts, classicStarts := s.drawStarts(cfg)
	if err := s.addRows(cfg, chronosStarts, classicStarts); err != nil {
		return nil, err
	}
	if err := s.addAttacker(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// newShard builds a shard's network, backbone, resolver and client host,
// with no clients and no attacker yet.
func newShard(cfg Config, p shardPlan) (*shardState, error) {
	net := simnet.New(simnet.Config{Seed: p.seed})
	bb, err := core.BuildBackbone(net, core.BackboneConfig{
		BenignServers:    cfg.BenignServers,
		MaliciousServers: cfg.MaliciousServers,
	})
	if err != nil {
		return nil, err
	}
	resolver, err := bb.NewResolver(shardResolverIP, cfg.ResolverCaps)
	if err != nil {
		return nil, err
	}
	host, err := net.AddHost(shardClientIP)
	if err != nil {
		return nil, err
	}
	epoch := net.Now().Add(time.Minute)
	buildSpan := time.Duration(cfg.PoolQueries-1)*chronos.PoolQueryInterval + 2*time.Minute
	return &shardState{
		plan:     p,
		net:      net,
		bb:       bb,
		resolver: resolver,
		host:     host,
		epoch:    epoch,
		end:      epoch.Add(chronos.PoolQueryInterval + buildSpan), // max stagger + build + settle
	}, nil
}

// drawStarts draws every client's start as an offset from the epoch: a
// Chronos client's within one pool query interval, so pool generation is
// staggered across it, and a classic client's anywhere before the horizon,
// so its one resolution samples whatever the shared cache holds then. The
// draws come from a dedicated RNG so client scheduling does not perturb
// the network's seeded jitter stream.
func (s *shardState) drawStarts(cfg Config) (chronosStarts, classicStarts []time.Duration) {
	rng := rand.New(rand.NewSource(s.plan.seed ^ 0x6c657466))
	chronosStarts = make([]time.Duration, s.plan.chronos)
	for i := range chronosStarts {
		chronosStarts[i] = time.Duration(rng.Int63n(int64(chronos.PoolQueryInterval)))
	}
	classicStarts = make([]time.Duration, s.plan.classic)
	for i := range classicStarts {
		classicStarts[i] = time.Duration(rng.Int63n(int64(s.end.Sub(s.epoch))))
	}
	return chronosStarts, classicStarts
}

// chronosConfig is the shard's Chronos client configuration.
func chronosConfig(cfg Config) chronos.Config {
	return chronos.Config{PoolQueries: cfg.PoolQueries, Caps: cfg.ClientCaps}
}

// classicConfig is the shard's classic clients as a population: one
// resolution that keeps the first ntpclient.DefaultMaxServers distinct
// addresses, with no §V caps. ntpclient.Client.Start keeps the first
// addresses with repeats, but every answer here is wholly benign or wholly
// forged, so dropping a repeat never changes whether a majority of the
// set is malicious.
var classicConfig = chronos.Config{PoolQueries: 1, PoolTarget: ntpclient.DefaultMaxServers}

// addRows adds the shard's clients as the rows of two populations behind
// the shard's resolver, Chronos first, each row taking the place in the
// event order its own start timer would have had, and arms both
// schedules. Rows that absorb the same responses share their pool states.
// The Chronos rows stop after pool generation: the shift metric is
// sampled per distinct pool composition by the shiftsim engine, so no
// per-client NTP sampling runs in the shard. A classic row makes its one
// DNS bootstrap and keeps its servers.
func (s *shardState) addRows(cfg Config, chronosStarts, classicStarts []time.Duration) error {
	s.pop = s.addPopulation(chronosConfig(cfg), chronosStarts)
	s.classic = s.addPopulation(classicConfig, classicStarts)
	if err := s.pop.Start(); err != nil {
		return err
	}
	return s.classic.Start()
}

// addPopulation adds one population's rows, starting at the epoch plus
// starts, without arming its schedule.
func (s *shardState) addPopulation(cfg chronos.Config, starts []time.Duration) *chronos.Population {
	p := chronos.NewPopulation(s.host, s.resolver, cfg)
	p.Grow(len(starts))
	for _, d := range starts {
		p.Add(s.epoch.Add(d))
	}
	return p
}

// addAttacker installs the shard's attacker, if it is poisoned, and
// schedules its actions. It stays armed: it re-probes the root's IPID and
// re-plants the checksum-compensated spoofed tails every rearmInterval,
// and triggers pool lookups through the open resolver, until the next
// hourly delegation re-walk reassembles the poisoned referral (verified
// through the cache) or the horizon ends.
func (s *shardState) addAttacker(cfg Config) error {
	if !s.plan.poisoned {
		return nil
	}
	net, resolver := s.net, s.resolver
	att, err := core.InstallAttacker(net, core.AttackerConfig{
		Mechanism:      core.Defrag,
		Servers:        s.bb.EvilIPs,
		VictimResolver: shardResolverIP,
	})
	if err != nil {
		return err
	}
	s.att = att
	attackAt := s.epoch.Add(time.Duration(cfg.PoisonQuery-1) * chronos.PoolQueryInterval)
	lead := attackAt.Sub(net.Now())
	if lead < 0 {
		lead = 0
	}
	trigger := dnsresolver.NewStub(att.Host, resolver.Addr(), 2*time.Second)
	var arm func()
	arm = func() {
		if core.GluePoisoned(resolver) || !net.Now().Before(s.end) {
			return
		}
		att.Poisoner.Execute(core.PoolName, dnswire.TypeA, func(error) {
			trigger.Lookup(core.PoolName, dnswire.TypeA, func(dnsresolver.Result) {})
		})
		net.After(rearmInterval, arm)
	}
	net.After(lead, arm)
	return nil
}

// simulate runs the shard's event loop to the horizon and measures the
// population. This is the steady-state region the fleet benchmark times;
// buildShard is the setup it excludes.
func (s *shardState) simulate(cfg Config) ShardResult {
	p := s.plan
	s.net.Run(s.end)

	// Measure the population.
	res := ShardResult{
		Shard:    p.index,
		Poisoned: p.poisoned,
		Clients:  p.clients,
		Chronos:  p.chronos,
		Classic:  p.classic,
	}
	// Rows share pool states, so each state's composition is counted once
	// and its verdict looked up once; compositions also repeat across
	// states, so the shard memoizes verdicts by composition. The sums
	// still run per row, in row order.
	comps := s.compositions(s.pop)
	verdicts := make(map[[2]int]bool)
	for i := range comps {
		if c := &comps[i]; c.malicious > 0 {
			key := [2]int{c.total, c.malicious}
			v, ok := verdicts[key]
			if !ok {
				v = shifted(cfg.Seed, c.total, c.malicious)
				verdicts[key] = v
			}
			c.shifted = v
		}
	}
	for r := 0; r < s.pop.Len(); r++ {
		c := &comps[s.pop.State(r)]
		if c.total > 0 {
			res.SumAttackerFraction += float64(c.malicious) / float64(c.total)
			if 3*c.malicious >= c.total {
				res.ChronosSubverted++
			}
		}
		if c.shifted {
			res.ChronosShifted++
		}
	}
	comps = s.compositions(s.classic)
	for r := 0; r < s.classic.Len(); r++ {
		if c := &comps[s.classic.State(r)]; 2*c.malicious > c.total {
			res.ClassicSubverted++
		}
	}
	res.ResolverStats = s.resolver.Stats()
	res.Planted = s.att != nil && core.GluePoisoned(s.resolver)
	return res
}

// composition is one pool state's size and malicious share.
type composition struct {
	total, malicious int
	shifted          bool
}

// compositions counts the pool state of each of pop's rows once (an empty
// one costs nothing to recount) and returns the counts by state id.
func (s *shardState) compositions(pop *chronos.Population) []composition {
	comps := make([]composition, pop.States())
	for r := 0; r < pop.Len(); r++ {
		if c := &comps[pop.State(r)]; c.total == 0 {
			for _, e := range pop.PoolView(r) {
				c.total++
				if s.bb.IsMalicious(e.IP) {
					c.malicious++
				}
			}
		}
	}
	return comps
}

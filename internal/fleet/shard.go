package fleet

import (
	"math/rand"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
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
// the seeded network with every client start, attacker action, and horizon
// already scheduled, plus the handles the measurement pass reads.
type shardState struct {
	plan           shardPlan
	net            *simnet.Network
	bb             *core.Backbone
	resolver       *dnsresolver.Resolver
	chronosClients []*chronos.Client
	classicClients []*ntpclient.Client
	att            *core.Attacker
	end            time.Time
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

// buildShard constructs one resolver shard: topology, client population,
// and attacker, with every action scheduled on the shard's own seeded
// network. No virtual time passes here — the returned state is the t=0
// snapshot that simulate advances.
func buildShard(cfg Config, p shardPlan) (*shardState, error) {
	net := simnet.New(simnet.Config{Seed: p.seed})
	bb, err := core.BuildBackbone(net, core.BackboneConfig{
		BenignServers:    cfg.BenignServers,
		MaliciousServers: cfg.MaliciousServers,
	})
	if err != nil {
		return nil, err
	}
	resolver, err := bb.NewResolver(shardResolverIP, cfg.ResolverPolicy)
	if err != nil {
		return nil, err
	}
	clientHost, err := net.AddHost(shardClientIP)
	if err != nil {
		return nil, err
	}

	// The shared resolver handle: direct in-process by default, real UDP
	// stub exchanges in fidelity mode.
	var handle dnsresolver.Lookuper = resolver
	if cfg.WireStubs {
		handle = dnsresolver.NewStub(clientHost, resolver.Addr(), 0)
	}

	// Stagger draws come from a dedicated RNG so client scheduling does
	// not perturb the network's seeded jitter stream.
	rng := rand.New(rand.NewSource(p.seed ^ 0x6c657466))

	epoch := net.Now().Add(time.Minute)
	buildSpan := time.Duration(cfg.PoolQueries-1)*cfg.PoolQueryInterval + 2*time.Minute
	end := epoch.Add(cfg.PoolQueryInterval + buildSpan) // max stagger + build + settle

	// Chronos clients: one population behind the shard's resolver, so
	// clients that absorb the same responses share their pool states.
	// Pool generation is staggered across one query interval; each client
	// stops after generation — the population shift metric is then
	// sampled per distinct generated pool composition by the shiftsim
	// engine, so no per-client NTP sampling runs in the shard itself.
	pop := chronos.NewPopulation(clientHost, handle, chronos.Config{
		PoolName:          core.PoolName,
		PoolQueries:       cfg.PoolQueries,
		PoolQueryInterval: cfg.PoolQueryInterval,
		Policy:            cfg.ClientPolicy,
	})
	chronosClients := make([]*chronos.Client, p.chronos)
	for i := range chronosClients {
		c := pop.New(&clock.Clock{})
		chronosClients[i] = c
		start := epoch.Add(time.Duration(rng.Int63n(int64(cfg.PoolQueryInterval))))
		cc := c
		net.After(start.Sub(net.Now()), func() {
			cc.BuildPool(func(error) { cc.Stop() })
		})
	}

	// Classic clients: one DNS bootstrap each, at a uniform random moment
	// of the horizon — their single resolution samples whatever the
	// shared cache holds at that instant.
	classicClients := make([]*ntpclient.Client, p.classic)
	for i := range classicClients {
		cl := ntpclient.New(clientHost, &clock.Clock{}, handle, ntpclient.Config{
			PoolName: core.PoolName,
		})
		classicClients[i] = cl
		start := epoch.Add(time.Duration(rng.Int63n(int64(buildSpan + cfg.PoolQueryInterval))))
		ccl := cl
		net.After(start.Sub(net.Now()), func() {
			ccl.Start(func(error) { ccl.Stop() })
		})
	}

	// Attacker.
	var att *core.Attacker
	if p.poisoned {
		att, err = core.InstallAttacker(net, core.AttackerConfig{
			Mechanism:      cfg.Mechanism,
			Servers:        bb.EvilIPs,
			VictimResolver: shardResolverIP,
		})
		if err != nil {
			return nil, err
		}
		attackAt := epoch.Add(time.Duration(cfg.PoisonQuery-1) * cfg.PoolQueryInterval)
		lead := attackAt.Sub(net.Now())
		if lead < 0 {
			lead = 0
		}
		switch cfg.Mechanism {
		case core.Defrag:
			// Stay armed: re-probe the root's IPID and re-plant the
			// checksum-compensated spoofed tails every rearmInterval, and
			// trigger pool lookups through the open resolver, until the
			// next hourly delegation re-walk reassembles the poisoned
			// referral (verified through the cache) or the horizon ends.
			trigger := dnsresolver.NewStub(att.Host, resolver.Addr(), 2*time.Second)
			var arm func()
			arm = func() {
				if core.GluePoisoned(resolver) || !net.Now().Before(end) {
					return
				}
				att.Poisoner.Execute(core.PoolName, dnswire.TypeA, func(error) {
					trigger.Lookup(core.PoolName, dnswire.TypeA, func(dnsresolver.Result) {})
				})
				net.After(rearmInterval, arm)
			}
			net.After(lead, arm)
		case core.BGPHijack:
			net.After(lead, att.Hijacker.Announce)
			net.After(lead+40*time.Second+cfg.PoolQueryInterval/2, att.Hijacker.Withdraw)
		case core.BGPHijackPersistent:
			net.After(lead, att.Hijacker.Announce)
		}
	}

	return &shardState{
		plan:           p,
		net:            net,
		bb:             bb,
		resolver:       resolver,
		chronosClients: chronosClients,
		classicClients: classicClients,
		att:            att,
		end:            end,
	}, nil
}

// simulate runs the shard's event loop to the horizon and measures the
// population. This is the steady-state region the fleet benchmark times;
// buildShard is the setup it excludes.
func (s *shardState) simulate(cfg Config) (*ShardResult, error) {
	p := s.plan
	s.net.Run(s.end)

	// Measure the population.
	res := &ShardResult{
		Shard:    p.index,
		Poisoned: p.poisoned,
		Clients:  p.clients,
		Chronos:  p.chronos,
		Classic:  p.classic,
	}
	// Pool compositions repeat heavily within a shard, so the shard
	// memoizes its verdicts.
	verdicts := make(map[[2]int]bool)
	for _, c := range s.chronosClients {
		var malicious, total int
		for _, e := range c.PoolView() {
			total++
			if s.bb.IsMalicious(e.IP) {
				malicious++
			}
		}
		if total > 0 {
			res.SumAttackerFraction += float64(malicious) / float64(total)
			if 3*malicious >= total {
				res.ChronosSubverted++
			}
		}
		if malicious == 0 {
			continue
		}
		key := [2]int{total, malicious}
		v, ok := verdicts[key]
		if !ok {
			v = shifted(cfg.Seed, total, malicious)
			verdicts[key] = v
		}
		if v {
			res.ChronosShifted++
		}
	}
	var scratch []simnet.Addr
	for _, cl := range s.classicClients {
		servers := cl.ServersInto(scratch[:0])
		scratch = servers
		malicious := 0
		for _, a := range servers {
			if s.bb.IsMalicious(a.IP) {
				malicious++
			}
		}
		if len(servers) > 0 && 2*malicious > len(servers) {
			res.ClassicSubverted++
		}
	}
	res.ResolverStats = s.resolver.Stats()
	if s.att != nil {
		if s.att.Hijacker != nil {
			res.Planted = s.att.Hijacker.Hijacked > 0
		} else if s.att.Poisoner != nil {
			res.Planted = core.GluePoisoned(s.resolver)
		}
	}
	return res, nil
}

package core

import (
	"fmt"
	"time"

	"chronosntp/internal/attack"
	"chronosntp/internal/chronos"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/simnet"
)

// This file holds the reusable topology builders extracted from Scenario:
// the NTP-farm + DNS-hierarchy backbone, resolver wiring, and attacker
// installation. Scenario composes them for the paper's single-client
// setting; internal/fleet composes the same builders once per resolver
// shard for the population-scale experiments. Builders add hosts in a
// fixed order so that a given simnet seed keeps producing bit-identical
// runs.

// BackboneConfig parameterises the shared attack surface every scenario
// variant stands on: the honest and malicious NTP server farms and the
// root → ntp.org → pool.ntp.org DNS hierarchy.
type BackboneConfig struct {
	BenignServers    int // pool.ntp.org inventory; default 500
	MaliciousServers int // attacker NTP servers; default 89
}

// rampPerRound is how far the malicious farms' shift grows per sync
// round (chronos.SyncInterval) once the ramp starts.
const rampPerRound = 20 * time.Millisecond

func (c BackboneConfig) withDefaults() BackboneConfig {
	if c.BenignServers == 0 {
		c.BenignServers = 500
	}
	if c.MaliciousServers == 0 {
		c.MaliciousServers = 89
	}
	return c
}

// Backbone is the built topology: the server populations plus the DNS
// hierarchy serving the rotating pool zone, all on one simulated network.
type Backbone struct {
	Net       *simnet.Network
	HonestIPs []simnet.IP
	EvilIPs   []simnet.IP
	Pool      *dnsserver.PoolZone
	RootAddr  simnet.Addr

	evilSet   map[simnet.IP]bool
	rampStart time.Time
}

// BuildBackbone wires the farms and the DNS hierarchy onto net. Hosts are
// added in a fixed order (honest farm, malicious farm, root, ntp.org), so
// runs remain bit-reproducible from the network seed.
func BuildBackbone(net *simnet.Network, cfg BackboneConfig) (*Backbone, error) {
	cfg = cfg.withDefaults()
	b := &Backbone{Net: net, evilSet: make(map[simnet.IP]bool)}

	// NTP server population. Pool servers are themselves synchronised,
	// so their absolute error stays small (ms offsets, negligible drift)
	// even across the 24-hour pool-generation horizon.
	var err error
	_, b.HonestIPs, err = ntpserver.Farm(net, honestBase, cfg.BenignServers, 2*time.Millisecond, 0.2)
	if err != nil {
		return nil, fmt.Errorf("%w: honest farm: %v", ErrScenario, err)
	}
	ramp := ntpserver.ShiftFunc(func(now time.Time) time.Duration {
		if b.rampStart.IsZero() || now.Before(b.rampStart) {
			return 0
		}
		rounds := int64(now.Sub(b.rampStart)/chronos.SyncInterval) + 1
		return time.Duration(rounds) * rampPerRound
	})
	_, b.EvilIPs, err = ntpserver.MaliciousFarm(net, evilBase, cfg.MaliciousServers, ramp)
	if err != nil {
		return nil, fmt.Errorf("%w: malicious farm: %v", ErrScenario, err)
	}
	for _, ip := range b.EvilIPs {
		b.evilSet[ip] = true
	}

	// DNS hierarchy: root delegates ntp.org; the ntp.org server hosts the
	// rotating pool zone.
	rootHost, err := net.AddHost(rootIP)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	rootSrv, err := dnsserver.New(rootHost)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	rootZone := dnsserver.NewDelegatingZone("")
	rootZone.Delegate(dnsserver.Delegation{
		Child: "ntp.org", NSTTL: nsTTL,
		Glue: []dnsserver.NSGlue{{Name: "ns1.ntp.org", IP: ntpOrgIP, TTL: nsTTL}},
	})
	if err := rootSrv.AddZone("", rootZone); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}

	ntpHost, err := net.AddHost(ntpOrgIP)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	ntpSrv, err := dnsserver.New(ntpHost)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	b.Pool, err = dnsserver.NewPoolZone(dnsserver.PoolConfig{Name: PoolName}, net.Now(), b.HonestIPs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	if err := ntpSrv.AddZone(PoolName, b.Pool); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	b.RootAddr = simnet.Addr{IP: rootIP, Port: dnsresolver.DNSPort}
	return b, nil
}

// IsMalicious reports whether ip belongs to the attacker's farm.
func (b *Backbone) IsMalicious(ip simnet.IP) bool { return b.evilSet[ip] }

// StartRamp begins the malicious farms' below-threshold time-shift ramp at
// the current virtual instant (the start of the post-build attack phase).
func (b *Backbone) StartRamp() { b.rampStart = b.Net.Now() }

// NewResolver adds a caching resolver host at ip with the root hint,
// applying the §V caps when caps is set.
func (b *Backbone) NewResolver(ip simnet.IP, caps bool) (*dnsresolver.Resolver, error) {
	rh, err := b.Net.AddHost(ip)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	res, err := dnsresolver.New(rh, dnsresolver.Config{
		EDNSSize: 4096,
		Caps:     caps,
	}, []dnsresolver.Hint{{Zone: "", Addr: b.RootAddr}})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	return res, nil
}

// AttackerConfig wires one mechanism's infrastructure against one victim
// resolver.
type AttackerConfig struct {
	Mechanism      Mechanism
	Servers        []simnet.IP   // malicious NTP inventory for forged responses
	ForgedTTL      time.Duration // default attack.DefaultForgedTTL
	VictimResolver simnet.IP     // whose cache the Defrag mechanism poisons
}

// Attacker bundles the mechanism-specific drivers built by
// InstallAttacker. Exactly one of Poisoner/Hijacker is non-nil (none for
// NoAttack).
type Attacker struct {
	Forge    *attack.ResponseForge
	Poisoner *attack.FragPoisoner
	Hijacker *attack.BGPHijacker
	Host     *simnet.Host
}

// InstallAttacker adds the attacker hosts and mechanism drivers to net.
// For NoAttack it returns an empty Attacker without touching the network.
func InstallAttacker(net *simnet.Network, cfg AttackerConfig) (*Attacker, error) {
	a := &Attacker{}
	if cfg.Mechanism == NoAttack || cfg.Mechanism == 0 {
		return a, nil
	}
	ttl := cfg.ForgedTTL
	if ttl == 0 {
		ttl = attack.DefaultForgedTTL
	}
	attHost, err := net.AddHost(attackerIP)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	a.Host = attHost
	a.Forge = &attack.ResponseForge{PoolName: PoolName, Servers: cfg.Servers, TTL: ttl}
	switch cfg.Mechanism {
	case Defrag:
		attNSHost, err := net.AddHost(attackerNSIP)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrScenario, err)
		}
		if _, err := attack.NewMaliciousNameserver(attNSHost, "ntp.org", a.Forge); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrScenario, err)
		}
		a.Poisoner = attack.NewFragPoisoner(attHost, attack.FragPoisonerConfig{
			VictimResolver: cfg.VictimResolver,
			TargetServer:   simnet.Addr{IP: rootIP, Port: 53},
			GlueName:       "ns1.ntp.org",
			AttackerNS:     attackerNSIP,
			ForcedMTU:      68,
			ResolverEDNS:   4096,
		})
	case BGPHijack, BGPHijackPersistent:
		a.Hijacker = attack.NewBGPHijacker(net, a.Forge, simnet.IPv4(198, 51, 100, 0), 24)
		if cfg.Mechanism == BGPHijackPersistent {
			a.Hijacker.PerResponse = 4
			a.Forge.TTL = 150 * time.Second // policy-compliant stealth mode
		}
	default:
		return nil, fmt.Errorf("%w: unknown mechanism %v", ErrScenario, cfg.Mechanism)
	}
	return a, nil
}

// GluePoisoned reports whether res' cache currently maps the hierarchy's
// delegation glue (ns1.ntp.org) to the attacker nameserver — the
// success condition of the defragmentation chain, used by fleet
// instrumentation and the attacker's own verification probe.
func GluePoisoned(res *dnsresolver.Resolver) bool {
	rrs, ok := res.Cache().Get(res.Host().Net().Now(), "ns1.ntp.org", dnswire.TypeA)
	if !ok {
		return false
	}
	for _, rr := range rrs {
		if simnet.IP(rr.A) == attackerNSIP {
			return true
		}
	}
	return false
}

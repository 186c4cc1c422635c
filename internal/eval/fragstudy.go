package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"chronosntp/internal/attack"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ipfrag"
	"chronosntp/internal/runner"
	"chronosntp/internal/simnet"
)

// FragmentationStudy reproduces the §II measurement claims (from the
// companion paper [3]) against synthetic populations whose ground-truth
// behaviour is calibrated to the published marginals:
//
//   - 16 of 30 pool.ntp.org nameservers fragment responses down to a
//     548-byte path MTU (and none deploy DNSSEC);
//   - 90 % of resolvers accept fragments of some size, 64 % even the
//     minimum 68-byte MTU;
//   - 14 % of resolvers are remotely triggerable via SMTP servers or open
//     resolvers.
//
// The real populations cannot be re-measured offline; what this experiment
// validates is that the *probing methodology* — PMTU forcing, fragmented
// probe responses, reassembly observation, third-party triggering — runs
// end to end through the simulated stack and recovers the ground truth
// exactly. With trials > 1 the three probe campaigns are re-run against
// independently seeded populations (fanned across `parallel` workers) and
// each marginal is reported as mean ± 95% CI.
func FragmentationStudy(seed int64, trials, parallel int) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	fragServers := make([]float64, trials)
	some := make([]float64, trials)
	tiny := make([]float64, trials)
	triggerable := make([]float64, trials)
	err := runner.ForEach(context.Background(), trials, parallel, func(k int) error {
		// Each replica gets the three probe seeds the single-trial study
		// used, offset past every earlier replica's block.
		base := seed + 3*int64(k)
		fs, err := probeNameserverFragmentation(base)
		if err != nil {
			return err
		}
		fragServers[k] = float64(fs)
		s, tn, err := probeResolverFragmentAcceptance(base + 1)
		if err != nil {
			return err
		}
		some[k], tiny[k] = float64(s), float64(tn)
		tr, err := probeQueryTriggering(base + 2)
		if err != nil {
			return err
		}
		triggerable[k] = float64(tr)
		return nil
	})
	if err != nil {
		return nil, err
	}

	p := &FragStudyPayload{
		FragmentingNameservers: describe(fragServers),
		AcceptAnyFragment:      describe(some),
		AcceptTinyFragment:     describe(tiny),
		Triggerable:            describe(triggerable),
	}
	return &Result{Meta: newMeta("E5", seed, trials), Payload: p}, nil
}

// bigTXT pads a zone response beyond 548 bytes so it fragments at reduced
// path MTUs.
func bigTXT(name string) dnswire.RR {
	return dnswire.TXTRecord(name, 60, strings.Repeat("x", 250), strings.Repeat("y", 250), strings.Repeat("z", 150))
}

// probeNameserverFragmentation probes 30 nameservers: a spoofed ICMP PTB
// (path-MTU override) is sent for each, a large response is elicited, and
// a tap counts whether it arrives fragmented. 16 of the 30 honour the
// PTB; the rest clamp to the Ethernet MTU.
func probeNameserverFragmentation(seed int64) (int, error) {
	n := simnet.New(simnet.Config{Seed: seed})
	proberIP := simnet.IPv4(10, 9, 0, 1)
	prober, err := n.AddHost(proberIP)
	if err != nil {
		return 0, err
	}

	fragmentedFrom := make(map[simnet.IP]bool)
	n.AddTap(simnet.TapFunc(func(pkt simnet.Packet) simnet.Verdict {
		if pkt.Dst == proberIP && pkt.IsFragment() {
			fragmentedFrom[pkt.Src] = true
		}
		return simnet.Pass
	}))

	observed := 0
	for i := 0; i < 30; i++ {
		ip := simnet.IPv4(198, 51, 100, byte(i+1))
		host, err := n.AddHost(ip)
		if err != nil {
			return 0, err
		}
		srv, err := dnsserver.New(host)
		if err != nil {
			return 0, err
		}
		zone := dnsserver.NewStaticZone("probe.test")
		zone.Add(bigTXT("big.probe.test"))
		if err := srv.AddZone("probe.test", zone); err != nil {
			return 0, err
		}
		// Ground truth: the first 16 honour PMTU reduction to 548.
		if i < 16 {
			n.SetPathMTU(ip, proberIP, 548)
		}

		// Probe: EDNS query eliciting the large response.
		port := prober.EphemeralPort()
		answered := false
		_ = prober.Listen(port, func(now time.Time, meta simnet.Meta, payload []byte) {
			answered = true
		})
		q := dnswire.NewQuery(uint16(i), "big.probe.test", dnswire.TypeTXT)
		q.SetEDNS(1232)
		b, err := q.Encode()
		if err != nil {
			return 0, err
		}
		_ = prober.SendUDP(port, simnet.Addr{IP: ip, Port: 53}, b)
		n.RunFor(time.Second)
		prober.Close(port)
		if answered && fragmentedFrom[ip] {
			observed++
		}
	}
	return observed, nil
}

// probeResolverFragmentAcceptance probes 100 resolvers through an
// attacker-controlled domain: the attacker nameserver answers with a large
// response while the path MTU toward each resolver is forced down; the
// lookup succeeds only if the resolver's stack reassembles the fragments.
// Ground truth: 10 accept no fragments, 26 accept only large (≥ 128-byte)
// fragments, 64 accept everything.
func probeResolverFragmentAcceptance(seed int64) (somePct, tinyPct int, err error) {
	n := simnet.New(simnet.Config{Seed: seed})
	nsIP := simnet.IPv4(66, 66, 0, 53)
	nsHost, err := n.AddHost(nsIP)
	if err != nil {
		return 0, 0, err
	}
	srv, err := dnsserver.New(nsHost)
	if err != nil {
		return 0, 0, err
	}
	zone := dnsserver.NewStaticZone("probe.test")
	zone.Add(bigTXT("a.probe.test"))
	zone.Add(bigTXT("b.probe.test"))
	if err := srv.AddZone("probe.test", zone); err != nil {
		return 0, 0, err
	}

	clientIP := simnet.IPv4(10, 9, 0, 2)
	client, err := n.AddHost(clientIP)
	if err != nil {
		return 0, 0, err
	}

	someCount, tinyCount := 0, 0
	for i := 0; i < 100; i++ {
		ip := simnet.IPv4(10, 10, byte(i/200), byte(i%200+1))
		host, err := n.AddHost(ip)
		if err != nil {
			return 0, 0, err
		}
		// Ground truth acceptance classes.
		switch {
		case i < 10:
			host.SetReassemblyPolicy(ipfrag.Config{DropFragments: true})
		case i < 36:
			host.SetReassemblyPolicy(ipfrag.Config{MinFragment: 128})
		}
		res, err := dnsresolver.New(host, dnsresolver.Config{
			EDNSSize: 1232, Timeout: time.Second,
		}, []dnsresolver.Hint{{Zone: "probe.test", Addr: simnet.Addr{IP: nsIP, Port: 53}}})
		if err != nil {
			return 0, 0, err
		}
		stub := dnsresolver.NewStub(client, res.Addr(), 3*time.Second)

		// Probe 1: moderate fragmentation (MTU 548 → 528-byte fragments).
		n.SetPathMTU(nsIP, ip, 548)
		if lookupSucceeds(n, stub, "a.probe.test") {
			someCount++
		}
		// Probe 2: minimum-MTU fragmentation (68 → 48-byte fragments).
		n.SetPathMTU(nsIP, ip, ipfrag.MinMTU)
		if lookupSucceeds(n, stub, "b.probe.test") {
			tinyCount++
		}
		n.SetPathMTU(nsIP, ip, 0)
	}
	return someCount, tinyCount, nil
}

func lookupSucceeds(n *simnet.Network, stub *dnsresolver.Stub, name string) bool {
	ok := false
	done := false
	stub.Lookup(name, dnswire.TypeTXT, func(res dnsresolver.Result) {
		ok = res.Err == nil && len(res.RRs) > 0
		done = true
	})
	n.RunFor(5 * time.Second)
	return done && ok
}

// probeQueryTriggering checks, for 100 resolver deployments, whether an
// off-site attacker can make the resolver issue queries: 8 sites run open
// resolvers, 6 more have an SMTP server sharing the resolver, and the
// remaining 86 are closed. (Open/closed access control is a deployment
// property, applied at the probe.)
func probeQueryTriggering(seed int64) (int, error) {
	n := simnet.New(simnet.Config{Seed: seed})
	nsIP := simnet.IPv4(66, 66, 0, 54)
	nsHost, err := n.AddHost(nsIP)
	if err != nil {
		return 0, err
	}
	srv, err := dnsserver.New(nsHost)
	if err != nil {
		return 0, err
	}
	zone := dnsserver.NewStaticZone("probe.test")
	zone.Add(dnswire.ARecord("mx.probe.test", 60, [4]byte{1, 2, 3, 4}))
	if err := srv.AddZone("probe.test", zone); err != nil {
		return 0, err
	}
	attackerHost, err := n.AddHost(simnet.IPv4(66, 66, 0, 1))
	if err != nil {
		return 0, err
	}

	triggerable := 0
	for i := 0; i < 100; i++ {
		open := i < 8
		smtp := i >= 8 && i < 14

		ip := simnet.IPv4(10, 20, byte(i/200), byte(i%200+1))
		host, err := n.AddHost(ip)
		if err != nil {
			return 0, err
		}
		res, err := dnsresolver.New(host, dnsresolver.Config{Timeout: time.Second},
			[]dnsresolver.Hint{{Zone: "probe.test", Addr: simnet.Addr{IP: nsIP, Port: 53}}})
		if err != nil {
			return 0, err
		}

		before := res.Stats().ClientQueries
		if open {
			// Probe: direct query from off-site.
			stub := dnsresolver.NewStub(attackerHost, res.Addr(), 2*time.Second)
			stub.Lookup(fmt.Sprintf("mx%d.probe.test", i), dnswire.TypeA, func(dnsresolver.Result) {})
			n.RunFor(3 * time.Second)
		} else if smtp {
			mailIP := simnet.IPv4(10, 21, byte(i/200), byte(i%200+1))
			mailHost, err := n.AddHost(mailIP)
			if err != nil {
				return 0, err
			}
			mailStub := dnsresolver.NewStub(mailHost, res.Addr(), 2*time.Second)
			trigger, err := attack.NewSMTPTrigger(mailHost, mailStub)
			if err != nil {
				return 0, err
			}
			if err := attack.SendMail(attackerHost, trigger.Addr(), "probe.test"); err != nil {
				return 0, err
			}
			n.RunFor(3 * time.Second)
		}
		if res.Stats().ClientQueries > before {
			triggerable++
		}
	}
	return triggerable, nil
}

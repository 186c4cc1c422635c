package attack

import (
	"testing"
	"time"

	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// TestFragPoisonIPIDWindowTooSmall shows the window's edge: the attacker
// plants for the 8 IPIDs after its probe, so when other traffic consumes
// the server's IPIDs between probe and victim query, 7 burned still land
// and 8 push the genuine response past the window.
func TestFragPoisonIPIDWindowTooSmall(t *testing.T) {
	run := func(burnIPIDs int) bool {
		tp := newTopo(t, 120, dnsresolver.Config{EDNSSize: 4096})
		forge := &ResponseForge{PoolName: "pool.ntp.org", Servers: evilServers(89)}
		if _, err := NewMaliciousNameserver(tp.attackerNS, "ntp.org", forge); err != nil {
			t.Fatal(err)
		}
		poisoner := NewFragPoisoner(tp.attacker, FragPoisonerConfig{
			VictimResolver: resolverIP,
			TargetServer:   simnet.Addr{IP: rootIP, Port: 53},
			GlueName:       "ns1.ntp.org",
			AttackerNS:     attackerNSIP,
			ForcedMTU:      68,
			ResolverEDNS:   4096,
		})
		planted := false
		poisoner.Execute("pool.ntp.org", dnswire.TypeA, func(err error) { planted = err == nil })
		tp.net.RunFor(5 * time.Second)
		if !planted {
			t.Fatal("attack chain did not complete")
		}
		// Cross-traffic: other clients query the root, advancing its
		// IPID counter past the attacker's prediction.
		other, err := tp.net.AddHost(simnet.IPv4(10, 0, 7, 7))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < burnIPIDs; i++ {
			q := dnswire.NewQuery(uint16(i), "pool.ntp.org", dnswire.TypeA)
			b, _ := q.Encode()
			port := other.EphemeralPort()
			_ = other.Listen(port, func(time.Time, simnet.Meta, []byte) {})
			_ = other.SendUDP(port, simnet.Addr{IP: rootIP, Port: 53}, b)
			tp.net.RunFor(100 * time.Millisecond)
			other.Close(port)
		}
		var got dnsresolver.Result
		tp.stub.Lookup("pool.ntp.org", dnswire.TypeA, func(r dnsresolver.Result) { got = r })
		tp.net.RunFor(30 * time.Second)
		if got.Err != nil {
			return false
		}
		return len(got.RRs) == 89
	}
	if !run(ipidWindow - 1) {
		t.Errorf("the attack should still land after %d burned IPIDs", ipidWindow-1)
	}
	if run(ipidWindow) {
		t.Errorf("the attack should miss after %d burned IPIDs", ipidWindow)
	}
}

// TestProbeTimeout: the poisoner reports failure when the target server is
// unreachable instead of hanging.
func TestProbeTimeout(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 122})
	attHost, _ := n.AddHost(attackerIP)
	poisoner := NewFragPoisoner(attHost, FragPoisonerConfig{
		VictimResolver: resolverIP,
		TargetServer:   simnet.Addr{IP: simnet.IPv4(198, 41, 0, 99), Port: 53}, // dead
		GlueName:       "ns1.ntp.org",
		AttackerNS:     attackerNSIP,
	})
	var gotErr error
	done := false
	poisoner.Execute("pool.ntp.org", dnswire.TypeA, func(err error) { gotErr, done = err, true })
	n.RunFor(time.Minute)
	if !done || gotErr == nil {
		t.Errorf("done=%v err=%v, want probe timeout", done, gotErr)
	}
}

// TestBGPHijackStealthModePassesPolicies verifies the PerResponse rotation
// mode produces §V-compliant responses that a resolver with the caps
// accepts.
func TestBGPHijackStealthModePassesPolicies(t *testing.T) {
	tp := newTopo(t, 120, dnsresolver.Config{EDNSSize: 4096, Caps: true})
	forge := &ResponseForge{PoolName: "pool.ntp.org", Servers: evilServers(50), TTL: 150 * time.Second}
	hj := NewBGPHijacker(tp.net, forge, simnet.IPv4(198, 51, 100, 0), 24)
	hj.PerResponse = 4
	hj.Announce()

	var got dnsresolver.Result
	tp.stub.Lookup("pool.ntp.org", dnswire.TypeA, func(r dnsresolver.Result) { got = r })
	tp.net.RunFor(30 * time.Second)
	if got.Err != nil {
		t.Fatalf("lookup: %v", got.Err)
	}
	if len(got.RRs) != 4 {
		t.Fatalf("answers = %d, want 4 (stealth mode)", len(got.RRs))
	}
	for _, rr := range got.RRs {
		if rr.A[0] != 66 {
			t.Error("non-attacker record in hijacked answer")
		}
		if rr.TTL > 150 {
			t.Errorf("TTL = %d, want <= 150", rr.TTL)
		}
	}
	if tp.resolver.Stats().PolicyRejects != 0 {
		t.Error("stealth response tripped the policy")
	}
	// Rotation: a later query gets different addresses.
	tp.net.RunFor(5 * time.Minute) // let the 150s TTL expire
	var second dnsresolver.Result
	tp.stub.Lookup("pool.ntp.org", dnswire.TypeA, func(r dnsresolver.Result) { second = r })
	tp.net.RunFor(30 * time.Second)
	if second.Err != nil || len(second.RRs) != 4 {
		t.Fatalf("second lookup: %+v", second)
	}
	if second.RRs[0].A == got.RRs[0].A {
		t.Error("stealth hijacker did not rotate addresses")
	}
}

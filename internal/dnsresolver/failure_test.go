package dnsresolver

import (
	"math/rand"
	"testing"
	"time"

	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// lossyTopo wires the standard hierarchy over a network that drops what
// loss picks. Loss applies only on the resolver↔authoritative legs, so
// the stub client itself is not flaky.
func lossyTopo(t *testing.T, seed int64, loss func(src, dst simnet.IP, rng *rand.Rand) bool, cfg Config) (*simnet.Network, *Resolver, *Stub) {
	t.Helper()
	n := simnet.New(simnet.Config{
		Seed: seed,
		Loss: func(src, dst simnet.IP, rng *rand.Rand) bool {
			return src != stubIP && dst != stubIP && loss(src, dst, rng)
		},
	})
	rootHost, _ := n.AddHost(rootIP)
	rootSrv, _ := dnsserver.New(rootHost)
	rootZone := dnsserver.NewDelegatingZone("")
	rootZone.Delegate(dnsserver.Delegation{
		Child: "ntp.org", NSTTL: 3600,
		Glue: []dnsserver.NSGlue{{Name: "ns1.ntp.org", IP: ntpOrgIP, TTL: 3600}},
	})
	_ = rootSrv.AddZone("", rootZone)

	ntpHost, _ := n.AddHost(ntpOrgIP)
	ntpSrv, _ := dnsserver.New(ntpHost)
	z := dnsserver.NewStaticZone("ntp.org")
	z.Add(dnswire.ARecord("www.ntp.org", 300, [4]byte{9, 9, 9, 9}))
	_ = ntpSrv.AddZone("ntp.org", z)

	resHost, _ := n.AddHost(resolverIP)
	res, err := New(resHost, cfg, []Hint{{Zone: "", Addr: simnet.Addr{IP: rootIP, Port: 53}}})
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := n.AddHost(stubIP)
	return n, res, NewStub(sh, res.Addr(), 30*time.Second)
}

// TestRetriesRecoverFromLoss: the resolver's two retries recover a
// lookup whose first two upstream queries are lost, and count both
// timeouts.
func TestRetriesRecoverFromLoss(t *testing.T) {
	lost := 0
	n, res, stub := lossyTopo(t, 401, func(src, _ simnet.IP, _ *rand.Rand) bool {
		if src == resolverIP && lost < retries {
			lost++
			return true
		}
		return false
	}, Config{Timeout: time.Second})
	var got Result
	gotSet := false
	stub.Lookup("www.ntp.org", dnswire.TypeA, func(r Result) { got, gotSet = r, true })
	n.RunFor(time.Minute)
	if !gotSet {
		t.Fatal("lookup never completed")
	}
	if got.Err != nil {
		t.Fatalf("lookup failed after %d lost queries: %v", lost, got.Err)
	}
	if len(got.RRs) != 1 || got.RRs[0].A != [4]byte{9, 9, 9, 9} {
		t.Errorf("answers: %+v", got.RRs)
	}
	if ts := res.Stats().Timeouts; lost != retries || ts != retries {
		t.Errorf("lost %d queries, %d timeouts; want %d of each", lost, ts, retries)
	}
}

// TestHeavyLossEventuallyFails: at near-total loss the resolver reports
// failure instead of hanging.
func TestHeavyLossEventuallyFails(t *testing.T) {
	n, res, stub := lossyTopo(t, 402, func(_, _ simnet.IP, rng *rand.Rand) bool { return rng.Float64() < 0.995 },
		Config{Timeout: 500 * time.Millisecond})
	var got Result
	gotSet := false
	stub.Lookup("www.ntp.org", dnswire.TypeA, func(r Result) { got, gotSet = r, true })
	n.RunFor(2 * time.Minute)
	if !gotSet {
		t.Fatal("lookup never completed")
	}
	if got.Err == nil {
		t.Error("lookup should fail at 99.5% loss")
	}
	if res.Stats().Timeouts == 0 {
		t.Error("no timeouts recorded")
	}
}

// TestDuplicateResponsesHarmless: a duplicated (replayed) upstream
// response must not corrupt resolver state or answer twice.
func TestDuplicateResponsesHarmless(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 403})
	// Duplicate every root→resolver packet via a tap: it injects a copy
	// of each, and passes both the original and the copy (same IPID).
	srvHost, _ := n.AddHost(ntpOrgIP)
	srv, _ := dnsserver.New(srvHost)
	z := dnsserver.NewStaticZone("ntp.org")
	z.Add(dnswire.ARecord("www.ntp.org", 300, [4]byte{9, 9, 9, 9}))
	_ = srv.AddZone("ntp.org", z)
	duplicated := make(map[uint16]bool)
	n.AddTap(simnet.TapFunc(func(pkt simnet.Packet) simnet.Verdict {
		if pkt.Src == ntpOrgIP && !duplicated[pkt.ID] {
			duplicated[pkt.ID] = true
			dup := pkt
			dup.Payload = append([]byte(nil), pkt.Payload...)
			n.Inject(dup, 0)
		}
		return simnet.Pass
	}))
	resHost, _ := n.AddHost(resolverIP)
	res, err := New(resHost, Config{}, []Hint{{Zone: "ntp.org", Addr: simnet.Addr{IP: ntpOrgIP, Port: 53}}})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	res.Lookup("www.ntp.org", dnswire.TypeA, func(r Result) {
		calls++
		if r.Err != nil {
			t.Errorf("lookup failed: %v", r.Err)
		}
	})
	n.RunFor(time.Minute)
	if calls != 1 {
		t.Errorf("callback fired %d times, want exactly once", calls)
	}
	if len(duplicated) == 0 {
		t.Error("the tap duplicated no response")
	}
}

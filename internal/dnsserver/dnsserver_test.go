package dnsserver

import (
	"slices"
	"testing"
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

var (
	serverIP = simnet.IPv4(198, 51, 100, 53)
	clientIP = simnet.IPv4(10, 0, 0, 1)
)

type fixture struct {
	net    *simnet.Network
	server *Authoritative
	client *simnet.Host
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: 21})
	sh, err := n.AddHost(serverIP)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sh)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := n.AddHost(clientIP)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{net: n, server: srv, client: ch}
}

// ask sends a raw query and returns the decoded response (or nil on
// timeout).
func (f *fixture) ask(t *testing.T, msg *dnswire.Message) *dnswire.Message {
	t.Helper()
	port := f.client.EphemeralPort()
	var resp *dnswire.Message
	err := f.client.Listen(port, func(now time.Time, meta simnet.Meta, payload []byte) {
		m, err := dnswire.Decode(payload)
		if err == nil {
			resp = m
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.client.Close(port)
	b, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.client.SendUDP(port, f.server.Addr(), b); err != nil {
		t.Fatal(err)
	}
	f.net.RunFor(time.Second)
	return resp
}

func TestStaticZoneAnswers(t *testing.T) {
	f := newFixture(t)
	z := NewStaticZone("example.org")
	z.Add(dnswire.ARecord("www.example.org", 300, [4]byte{192, 0, 2, 80}))
	if err := f.server.AddZone("example.org", z); err != nil {
		t.Fatal(err)
	}
	resp := f.ask(t, dnswire.NewQuery(1, "www.example.org", dnswire.TypeA))
	if resp == nil {
		t.Fatal("no response")
	}
	if !resp.Authoritative || resp.RCode != dnswire.RCodeNoError {
		t.Errorf("flags: aa=%v rcode=%v", resp.Authoritative, resp.RCode)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].A != [4]byte{192, 0, 2, 80} {
		t.Errorf("answers: %+v", resp.Answers)
	}
	if f.server.Queries() != 1 {
		t.Errorf("Queries = %d", f.server.Queries())
	}
}

func TestStaticZoneNXDomainAndNoData(t *testing.T) {
	f := newFixture(t)
	z := NewStaticZone("example.org")
	z.Add(dnswire.ARecord("www.example.org", 300, [4]byte{192, 0, 2, 80}))
	if err := f.server.AddZone("example.org", z); err != nil {
		t.Fatal(err)
	}
	if resp := f.ask(t, dnswire.NewQuery(2, "nope.example.org", dnswire.TypeA)); resp == nil || resp.RCode != dnswire.RCodeNXDomain {
		t.Errorf("want NXDOMAIN, got %+v", resp)
	}
	// Existing name, missing type: NOERROR with empty answer.
	if resp := f.ask(t, dnswire.NewQuery(3, "www.example.org", dnswire.TypeTXT)); resp == nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 0 {
		t.Errorf("want NODATA, got %+v", resp)
	}
}

func TestUnknownZoneRefused(t *testing.T) {
	f := newFixture(t)
	z := NewStaticZone("example.org")
	if err := f.server.AddZone("example.org", z); err != nil {
		t.Fatal(err)
	}
	resp := f.ask(t, dnswire.NewQuery(4, "other.test", dnswire.TypeA))
	if resp == nil || resp.RCode != dnswire.RCodeRefused {
		t.Errorf("want REFUSED, got %+v", resp)
	}
}

func TestDuplicateZoneRejected(t *testing.T) {
	f := newFixture(t)
	if err := f.server.AddZone("example.org", NewStaticZone("example.org")); err != nil {
		t.Fatal(err)
	}
	if err := f.server.AddZone("example.org", NewStaticZone("example.org")); err == nil {
		t.Error("duplicate zone accepted")
	}
}

func TestGarbageIgnored(t *testing.T) {
	f := newFixture(t)
	port := f.client.EphemeralPort()
	_ = f.client.Listen(port, func(time.Time, simnet.Meta, []byte) {
		t.Error("unexpected response to garbage")
	})
	_ = f.client.SendUDP(port, f.server.Addr(), []byte{1, 2, 3})
	f.net.RunFor(time.Second)
}

func TestNotImpForWeirdOpcode(t *testing.T) {
	f := newFixture(t)
	_ = f.server.AddZone("example.org", NewStaticZone("example.org"))
	q := dnswire.NewQuery(5, "example.org", dnswire.TypeA)
	q.Opcode = 2 // STATUS
	resp := f.ask(t, q)
	if resp == nil || resp.RCode != dnswire.RCodeNotImp {
		t.Errorf("want NOTIMP, got %+v", resp)
	}
}

func TestTruncationWithoutEDNS(t *testing.T) {
	f := newFixture(t)
	z := NewStaticZone("big.org")
	for i := 0; i < 80; i++ { // 80 A records exceed 512 bytes
		z.Add(dnswire.ARecord("big.org", 300, [4]byte{10, 0, byte(i >> 8), byte(i)}))
	}
	_ = f.server.AddZone("big.org", z)
	resp := f.ask(t, dnswire.NewQuery(6, "big.org", dnswire.TypeA))
	if resp == nil {
		t.Fatal("no response")
	}
	if !resp.Truncated || len(resp.Answers) != 0 {
		t.Errorf("want truncated empty response, got tc=%v answers=%d", resp.Truncated, len(resp.Answers))
	}
	// With EDNS0 the same response fits.
	q := dnswire.NewQuery(7, "big.org", dnswire.TypeA)
	q.SetEDNS(4096)
	resp = f.ask(t, q)
	if resp == nil || resp.Truncated || len(resp.Answers) != 80 {
		t.Errorf("EDNS response: %+v", resp)
	}
}

func TestPoolZoneRotation(t *testing.T) {
	f := newFixture(t)
	inventory := make([]simnet.IP, 100)
	for i := range inventory {
		inventory[i] = simnet.IPv4(203, 0, byte(i/250), byte(i%250))
	}
	pz, err := NewPoolZone(PoolConfig{Name: "pool.ntp.org"}, f.net.Now(), inventory)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.server.AddZone("pool.ntp.org", pz)
	if len(pz.inventory) != 100 || pz.cfg.Name != "pool.ntp.org" {
		t.Error("pool metadata wrong")
	}

	resp := f.ask(t, dnswire.NewQuery(8, "pool.ntp.org", dnswire.TypeA))
	if resp == nil {
		t.Fatal("no response")
	}
	if len(resp.Answers) != dnswire.BenignPoolResponseRecords {
		t.Fatalf("answers = %d, want 4", len(resp.Answers))
	}
	for _, rr := range resp.Answers {
		if rr.TTL != 150 {
			t.Errorf("TTL = %d, want 150", rr.TTL)
		}
	}

	// Same window → same subset (predictability the attacker probes for).
	resp2 := f.ask(t, dnswire.NewQuery(9, "pool.ntp.org", dnswire.TypeA))
	for i := range resp.Answers {
		if resp.Answers[i].A != resp2.Answers[i].A {
			t.Error("windowed rotation returned different subsets within one window")
		}
	}

	// After the window passes, the subset rotates.
	f.net.RunFor(5 * time.Minute)
	resp3 := f.ask(t, dnswire.NewQuery(10, "pool.ntp.org", dnswire.TypeA))
	same := true
	for i := range resp.Answers {
		if resp.Answers[i].A != resp3.Answers[i].A {
			same = false
		}
	}
	if same {
		t.Error("subset did not rotate across windows")
	}
}

func TestPoolZoneAccumulationOver24Queries(t *testing.T) {
	// Chronos' pool generation: hourly queries accumulate ~4 new servers
	// each, approaching 96 distinct addresses in 24 hours.
	f := newFixture(t)
	inventory := make([]simnet.IP, 500)
	for i := range inventory {
		inventory[i] = simnet.IPv4(203, byte(i/250), byte(i%250), 1)
	}
	pz, err := NewPoolZone(PoolConfig{Name: "pool.ntp.org"}, f.net.Now(), inventory)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.server.AddZone("pool.ntp.org", pz)
	seen := make(map[simnet.IP]bool)
	for hour := 0; hour < 24; hour++ {
		resp := f.ask(t, dnswire.NewQuery(uint16(100+hour), "pool.ntp.org", dnswire.TypeA))
		if resp == nil {
			t.Fatal("no response")
		}
		for _, rr := range resp.Answers {
			seen[simnet.IP(rr.A)] = true
		}
		f.net.RunFor(time.Hour)
	}
	if len(seen) < 80 || len(seen) > 96 {
		t.Errorf("accumulated %d distinct servers over 24 hourly queries, want ~96", len(seen))
	}
}

// TestPermCacheKeepsConsecutiveWindows pins permCache's slot choice: a
// run rolls through consecutive rotation windows of one inventory shape,
// and no two of 4,096 of them may evict each other, so a second pass over
// them is answered from the cache every time.
func TestPermCacheKeepsConsecutiveWindows(t *testing.T) {
	const n, k, base = 500, 4, 1 << 40
	windows := len(permCache.entries)
	first := make([][]int32, windows)
	for w := 0; w < windows; w++ {
		first[w] = windowPerm(base+int64(w), n, k, nil)
	}
	for w := 0; w < windows; w++ {
		key := permKey{window: base + int64(w), n: n, k: k}
		permCache.Lock()
		e := permCache.entries[permSlot(key)]
		permCache.Unlock()
		if !e.valid || e.key != key {
			t.Fatalf("window %d of %d was evicted by %+v", w, windows, e.key)
		}
		if got := windowPerm(key.window, n, k, nil); !slices.Equal(got, first[w]) {
			t.Fatalf("window %d: second draw %v, first %v", w, got, first[w])
		}
	}
}

func TestPoolZoneEdgeCases(t *testing.T) {
	if _, err := NewPoolZone(PoolConfig{Name: "pool.ntp.org"}, time.Time{}, nil); err == nil {
		t.Error("empty inventory accepted")
	}
	f := newFixture(t)
	pz, err := NewPoolZone(PoolConfig{Name: "pool.ntp.org"}, f.net.Now(), []simnet.IP{simnet.IPv4(1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	_ = f.server.AddZone("pool.ntp.org", pz)
	// An inventory smaller than an answer is answered whole.
	resp := f.ask(t, dnswire.NewQuery(13, "pool.ntp.org", dnswire.TypeA))
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %d, want 1", len(resp.Answers))
	}
	// Wrong name under the zone → NXDOMAIN; wrong type → NODATA.
	if resp := f.ask(t, dnswire.NewQuery(14, "x.pool.ntp.org", dnswire.TypeA)); resp.RCode != dnswire.RCodeNXDomain {
		t.Error("want NXDOMAIN for unknown name in pool zone")
	}
	if resp := f.ask(t, dnswire.NewQuery(15, "pool.ntp.org", dnswire.TypeTXT)); resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 0 {
		t.Error("want NODATA for non-A query")
	}
}

func TestDelegatingZoneReferral(t *testing.T) {
	f := newFixture(t)
	root := NewDelegatingZone("")
	root.Delegate(Delegation{
		Child: "ntp.org",
		NSTTL: 3600,
		Glue: []NSGlue{
			{Name: "ns1.ntp.org", IP: simnet.IPv4(198, 51, 100, 10), TTL: 3600},
			{Name: "ns2.ntp.org", IP: simnet.IPv4(198, 51, 100, 11), TTL: 3600},
		},
	})
	_ = f.server.AddZone("", root)

	resp := f.ask(t, dnswire.NewQuery(16, "pool.ntp.org", dnswire.TypeA))
	if resp == nil {
		t.Fatal("no response")
	}
	if len(resp.Answers) != 0 {
		t.Error("referral should carry no answers")
	}
	if len(resp.Authority) != 2 || resp.Authority[0].Type != dnswire.TypeNS {
		t.Fatalf("authority: %+v", resp.Authority)
	}
	if resp.Authority[0].Name != "ntp.org" {
		t.Errorf("delegated zone = %q", resp.Authority[0].Name)
	}
	glue := 0
	for _, rr := range resp.Additional {
		if rr.Type == dnswire.TypeA {
			glue++
		}
	}
	if glue != 2 {
		t.Errorf("glue records = %d, want 2", glue)
	}

	// A name under no delegation does not exist.
	if resp := f.ask(t, dnswire.NewQuery(17, "example.com", dnswire.TypeA)); resp == nil || resp.RCode != dnswire.RCodeNXDomain {
		t.Errorf("undelegated name: %+v, want NXDOMAIN", resp)
	}
}

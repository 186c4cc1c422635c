package chronos

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// scripted is one pool lookup's outcome: a failure, or the A records
// addrs (any other entry of rrs is a non-A record) with TTL ttl.
type scripted struct {
	fail bool
	rrs  []dnswire.RR
	ttl  uint32
}

var errScripted = errors.New("scripted lookup failure")

// scriptStub serves script[client][query]. Clients start one stagger
// apart within a pool query interval, so the lookup time names the client
// and the query, and one stub serves a whole population. Every answer is
// written into one scratch slice, as a resolver cache serves its views, so
// a client that keeps a response's records instead of copying them fails.
type scriptStub struct {
	net       *simnet.Network
	start     time.Time
	stagger   time.Duration
	interval  time.Duration
	script    [][]scripted
	scratch   []dnswire.RR
	delivered [][]dnsresolver.Result // copies of what each client was served
}

func (s *scriptStub) Lookup(_ string, _ dnswire.Type, cb dnsresolver.Callback) {
	at := s.net.Now().Sub(s.start)
	client, query := int(at%s.interval/s.stagger), int(at/s.interval)
	r := s.script[client][query]
	if r.fail {
		s.delivered[client] = append(s.delivered[client], dnsresolver.Result{Err: errScripted})
		cb(dnsresolver.Result{Err: errScripted})
		return
	}
	s.scratch = append(s.scratch[:0], r.rrs...)
	for i := range s.scratch {
		s.scratch[i].TTL = r.ttl
	}
	s.delivered[client] = append(s.delivered[client], dnsresolver.Result{RRs: slices.Clone(s.scratch)})
	cb(dnsresolver.Result{RRs: s.scratch})
}

// runScript builds the pools of len(script) clients, one per script row,
// either as one shared population or as populations of one, and returns
// the clients and what each was served.
func runScript(t *testing.T, cfg Config, script [][]scripted, shared bool) ([]*Client, [][]dnsresolver.Result) {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: 1})
	host, err := n.AddHost(clientIP)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PoolQueries = len(script[0])
	cfg.PoolQueryInterval = time.Minute
	stub := &scriptStub{
		net: n, start: n.Now().Add(time.Second), stagger: time.Second, interval: cfg.PoolQueryInterval,
		script: script, delivered: make([][]dnsresolver.Result, len(script)),
	}
	pop := NewPopulation(host, stub, cfg)
	clients := make([]*Client, len(script))
	for i := range clients {
		var c *Client
		if shared {
			c = pop.New(&clock.Clock{})
		} else {
			c = New(host, &clock.Clock{}, stub, cfg)
		}
		clients[i] = c
		n.After(stub.start.Add(time.Duration(i)*stub.stagger).Sub(n.Now()), func() {
			c.BuildPool(func(error) { c.Stop() })
		})
	}
	n.RunFor(time.Duration(cfg.PoolQueries+1) * cfg.PoolQueryInterval)
	return clients, stub.delivered
}

// referencePool is the per-client merge populations replace: the §V
// policy, then every A record in order, skipping members by linear scan,
// until the pool holds PoolTarget servers.
func referencePool(cfg Config, served []dnsresolver.Result) ([]PoolEntry, Stats) {
	var pool []PoolEntry
	st := Stats{PoolQueries: uint64(len(served))}
	for q, res := range served {
		if res.Err != nil {
			continue
		}
		var addrs []simnet.IP
		discard := false
		for _, rr := range res.RRs {
			if rr.Type != dnswire.TypeA {
				continue
			}
			if cfg.Policy.MaxTTL > 0 && time.Duration(rr.TTL)*time.Second > cfg.Policy.MaxTTL {
				discard = true
			}
			addrs = append(addrs, rr.A)
		}
		if discard || cfg.Policy.MaxAddrsPerResponse > 0 && len(addrs) > cfg.Policy.MaxAddrsPerResponse {
			st.PolicyDiscards++
			continue
		}
		st.PoolResponses++
		for _, ip := range addrs {
			if slices.ContainsFunc(pool, func(e PoolEntry) bool { return e.IP == ip }) {
				continue
			}
			if cfg.PoolTarget > 0 && len(pool) >= cfg.PoolTarget {
				break
			}
			pool = append(pool, PoolEntry{IP: ip, QueryIdx: q + 1})
		}
	}
	return pool, st
}

// checkScript runs script through a shared population and through
// populations of one and requires both, client by client, to end with the
// reference merge's pool and Stats. It returns the shared clients.
func checkScript(t *testing.T, cfg Config, script [][]scripted) []*Client {
	t.Helper()
	shared, served := runScript(t, cfg, script, true)
	single, _ := runScript(t, cfg, script, false)
	for i := range script {
		want, wantStats := referencePool(cfg, served[i])
		for _, side := range []struct {
			name string
			c    *Client
		}{{"shared", shared[i]}, {"single", single[i]}} {
			if got := side.c.PoolView(); !slices.Equal(got, want) {
				t.Fatalf("%s client %d: pool %v, reference %v", side.name, i, got, want)
			}
			if got := side.c.Stats(); got != wantStats {
				t.Fatalf("%s client %d: stats %+v, reference %+v", side.name, i, got, wantStats)
			}
		}
	}
	return shared
}

func addrRecords(addrs ...simnet.IP) []dnswire.RR {
	rrs := make([]dnswire.RR, len(addrs))
	for i, ip := range addrs {
		rrs[i] = dnswire.ARecord("pool.ntp.org", 0, [4]byte(ip))
	}
	return rrs
}

func addrRange(a, b byte, first, n int) []simnet.IP {
	out := make([]simnet.IP, n)
	for i := range out {
		out[i] = simnet.IPv4(a, b, 0, byte(first+i))
	}
	return out
}

// responseSet is the small set random scripts draw from: overlapping
// benign rotations, one with a duplicate address and a CNAME, one
// carrying 0.0.0.0, an empty answer, and two 89-record forged sets, one
// overlapping the benign addresses.
func responseSet() [][]dnswire.RR {
	var set [][]dnswire.RR
	for i := 0; i < 6; i++ {
		set = append(set, addrRecords(addrRange(203, 0, 1+2*i, 4)...))
	}
	dup := addrRecords(simnet.IPv4(203, 0, 0, 3), simnet.IPv4(203, 0, 0, 40), simnet.IPv4(203, 0, 0, 3), simnet.IPv4(203, 0, 0, 41))
	set = append(set, append([]dnswire.RR{dnswire.CNAMERecord("pool.ntp.org", 0, "alias.ntp.org")}, dup...))
	set = append(set, addrRecords(simnet.IPv4(0, 0, 0, 0), simnet.IPv4(203, 0, 0, 1)))
	set = append(set, nil)
	set = append(set, addrRecords(addrRange(66, 0, 1, 89)...))
	set = append(set, addrRecords(append(addrRange(66, 0, 50, 80), addrRange(203, 0, 1, 9)...)...))
	return set
}

// randomScript deals clients×queries lookups from the response set: one
// base sequence, which each client leaves at a sixth of its queries for a
// random draw, so clients share whole sequences and prefixes. TTLs
// straddle the one-hour MaxTTL limit by aging.
func randomScript(rng *rand.Rand, clients, queries int) [][]scripted {
	set := responseSet()
	draw := func(q int) scripted {
		r := scripted{ttl: 3700 - uint32(rng.Intn(200))}
		switch k := rng.Intn(12); {
		case k == 0:
			r.fail = true
		case k < 3:
			r.rrs = set[len(set)-1-rng.Intn(2)]
		case k < 5:
			r.rrs = set[6+rng.Intn(3)]
		default:
			r.rrs = set[(q+rng.Intn(2))%6]
		}
		return r
	}
	base := make([]scripted, queries)
	for q := range base {
		base[q] = draw(q)
	}
	script := make([][]scripted, clients)
	for c := range script {
		script[c] = slices.Clone(base)
		for q := range script[c] {
			if rng.Intn(6) == 0 {
				script[c][q] = draw(q)
			}
		}
	}
	return script
}

// TestPopulationMatchesPopulationsOfOne feeds random response sequences,
// drawn from a small set, to the clients of one population and to the
// same clients as populations of one: both must end with the pools and
// Stats of a per-client reference merge, under every pool limit.
func TestPopulationMatchesPopulationsOfOne(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{PoolTarget: 20},
		{Policy: PoolPolicy{MaxAddrsPerResponse: 4}},
		{Policy: PoolPolicy{MaxTTL: time.Hour}},
		{PoolTarget: 60, Policy: PoolPolicy{MaxAddrsPerResponse: 89, MaxTTL: time.Hour}},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("target%d,maxaddrs%d,maxttl%v/seed%d",
				cfg.PoolTarget, cfg.Policy.MaxAddrsPerResponse, cfg.Policy.MaxTTL, seed)
			t.Run(name, func(t *testing.T) {
				clients := checkScript(t, cfg, randomScript(rand.New(rand.NewSource(seed)), 40, 8))
				if states := distinctStates(clients); states >= len(clients) {
					t.Fatalf("%d clients hold %d distinct pool states: none is shared", len(clients), states)
				}
			})
		}
	}
}

// distinctStates counts the pool states clients hold: clients in one
// state share one view, and states grown from one another share its first
// element but differ in length.
func distinctStates(clients []*Client) int {
	type view struct {
		first *PoolEntry
		n     int
	}
	states := make(map[view]bool)
	for _, c := range clients {
		v := c.PoolView()
		var first *PoolEntry
		if len(v) > 0 {
			first = &v[0]
		}
		states[view{first, len(v)}] = true
	}
	return len(states)
}

// TestPoolViewAppendLeavesOthersAlone: clients in one population share
// pool arrays, and a state grows in place into its successor's entries,
// so appending to one client's view must copy rather than write into the
// array another client's pool is read from.
func TestPoolViewAppendLeavesOthersAlone(t *testing.T) {
	set := responseSet()
	first, second := scripted{rrs: set[0], ttl: 150}, scripted{rrs: set[3], ttl: 150}
	fail := scripted{fail: true}
	clients := checkScript(t, Config{}, [][]scripted{
		{first, fail, fail},
		{first, second, fail},
		{first, second, fail},
	})
	before := make([][]PoolEntry, len(clients))
	for i, c := range clients {
		before[i] = c.Pool()
	}
	for i, c := range clients {
		_ = append(c.PoolView(), PoolEntry{IP: simnet.IPv4(6, 6, 6, byte(i))})
	}
	for i, c := range clients {
		if got := c.PoolView(); !slices.Equal(got, before[i]) {
			t.Fatalf("client %d's pool changed to %v after appends to other views, was %v", i, got, before[i])
		}
	}
}

// FuzzPoolAbsorb decodes arbitrary bytes into pool limits and response
// sequences — duplicate, zero and repeated addresses, over-long and empty
// answers, failed lookups — dealt to four clients: a shared population and
// populations of one must agree with the reference merge, and neither may
// panic.
func FuzzPoolAbsorb(f *testing.F) {
	f.Add([]byte{0x00, 4, 1, 2, 3, 4, 4, 1, 2, 5, 6, 0xff, 2, 0, 0})
	f.Add([]byte{0x45, 89, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 4, 10, 11, 1, 2})
	f.Add([]byte{0xe0, 3, 7, 7, 7, 3, 7, 7, 7, 0, 0xff, 5, 200, 201, 0, 202, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var cfg Config
		cfg.PoolTarget = int(data[0] & 0x1f)
		if data[0]&0x20 != 0 {
			cfg.Policy.MaxAddrsPerResponse = 4
		}
		if data[0]&0x40 != 0 {
			cfg.Policy.MaxTTL = time.Hour
		}
		const clients, maxQueries = 4, 12
		var responses []scripted
		for rest := data[1:]; len(rest) > 0 && len(responses) < clients*maxQueries; {
			h := rest[0]
			rest = rest[1:]
			if h == 0xff {
				responses = append(responses, scripted{fail: true})
				continue
			}
			n := min(int(h), len(rest))
			var addrs []simnet.IP
			for _, b := range rest[:n] {
				addrs = append(addrs, simnet.IPv4(0, 0, b>>6, b&0x3f))
			}
			// The response's header byte sets its TTL on either side of
			// the one-hour limit.
			responses = append(responses, scripted{rrs: addrRecords(addrs...), ttl: 3000 + 5*uint32(h)})
			rest = rest[n:]
		}
		if len(responses) == 0 {
			return
		}
		queries := (len(responses) + clients - 1) / clients
		script := make([][]scripted, clients)
		for c := range script {
			script[c] = make([]scripted, queries)
			for q := range script[c] {
				script[c][q] = scripted{fail: true}
				if k := q*clients + c; k < len(responses) {
					script[c][q] = responses[k]
				}
			}
		}
		checkScript(t, cfg, script)
	})
}

// buildPoolStub is chronosbench's build_pool probe stub: of every 24
// queries, the 12th to the 23rd get the 89-record forged set and the rest
// four benign records each.
type buildPoolStub struct {
	benign, forged []dnswire.RR
	queries        int
}

func (p *buildPoolStub) Lookup(_ string, _ dnswire.Type, cb dnsresolver.Callback) {
	p.queries++
	q := p.queries % 24
	if q >= 12 {
		cb(dnsresolver.Result{RRs: p.forged})
		return
	}
	cb(dnsresolver.Result{RRs: p.benign[4*q : 4*q+4]})
}

// buildPoolRig returns one standalone client's 24-query pool generation,
// run to completion.
func buildPoolRig(tb testing.TB) func() {
	n := simnet.New(simnet.Config{Seed: 1})
	host, err := n.AddHost(simnet.IPv4(10, 9, 0, 1))
	if err != nil {
		tb.Fatal(err)
	}
	stub := &buildPoolStub{benign: addrRecords(addrRange(10, 1, 1, 48)...), forged: addrRecords(addrRange(10, 2, 1, 89)...)}
	return func() {
		c := New(host, &clock.Clock{}, stub, Config{})
		c.BuildPool(func(error) { c.Stop() })
		n.RunFor(25 * time.Hour)
		if c.PoolSize() != 48+89 {
			tb.Fatalf("pool of %d servers, want %d", c.PoolSize(), 48+89)
		}
	}
}

func BenchmarkBuildPool(b *testing.B) {
	build := buildPoolRig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build()
	}
}

// TestBuildPoolAllocCeiling holds a standalone client's pool generation —
// New, 24 queries, 12 benign 4-record and 12 forged 89-record responses —
// to its allocation count: a population of one grows its pool in place,
// so a state or an edge allocated per absorbed response fails here.
func TestBuildPoolAllocCeiling(t *testing.T) {
	build := buildPoolRig(t)
	build() // warm the event pools
	allocs := testing.AllocsPerRun(20, build)
	// Measured with go1.24: 13 — the client and its population (one
	// allocation), its four bound callbacks, three arrays and their
	// indexes (sized for the benign harvest, for the first forged set,
	// then for the last benign response), and the caller's clock and
	// done callback.
	const ceiling = 13
	t.Logf("%.1f allocs per pool generation (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("pool generation allocates %.1f times, ceiling %d", allocs, ceiling)
	}
}

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

// generations numbers a stub's answers as a resolver numbers its cached
// RRsets: answers with the same records in the same order share one
// nonzero Result.Gen, whatever their TTLs. An answer with an odd TTL gets
// Gen 0, as from a Lookuper that promises nothing, so rows see both.
type generations map[string]uint64

// of returns the Gen of an answer of rrs with TTL ttl.
func (g generations) of(rrs []dnswire.RR, ttl uint32) uint64 {
	if ttl%2 == 1 {
		return 0
	}
	key := fmt.Sprint(len(rrs))
	for _, rr := range rrs {
		key += fmt.Sprintf("|%s %v %v %s", rr.Name, rr.Type, rr.A, rr.Target)
	}
	if _, ok := g[key]; !ok {
		g[key] = uint64(len(g) + 1)
	}
	return g[key]
}

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
	gens      generations
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
	gen := s.gens.of(r.rrs, r.ttl)
	s.delivered[client] = append(s.delivered[client], dnsresolver.Result{RRs: slices.Clone(s.scratch), Gen: gen})
	cb(dnsresolver.Result{RRs: s.scratch, Gen: gen})
}

// scriptNet is the network, client host and script stub both sides of a
// scripted comparison run on; cfg comes back with the script's query
// count.
func scriptNet(t *testing.T, cfg Config, script [][]scripted) (*simnet.Network, *simnet.Host, *scriptStub, Config) {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: 1})
	host, err := n.AddHost(clientIP)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PoolQueries = len(script[0])
	stub := &scriptStub{
		net: n, start: n.Now().Add(time.Second), stagger: time.Second, interval: PoolQueryInterval,
		script: script, gens: generations{}, delivered: make([][]dnsresolver.Result, len(script)),
	}
	return n, host, stub, cfg
}

// runRows builds the pools of len(script) clients, one per script row, as
// the rows of one population, and returns it and what each was served.
func runRows(t *testing.T, cfg Config, script [][]scripted) (*Population, [][]dnsresolver.Result) {
	t.Helper()
	n, host, stub, cfg := scriptNet(t, cfg, script)
	pop := NewPopulation(host, stub, cfg)
	for i := range script {
		pop.Add(stub.start.Add(time.Duration(i) * stub.stagger))
	}
	if err := pop.Start(); err != nil {
		t.Fatal(err)
	}
	n.RunFor(time.Duration(cfg.PoolQueries+1) * PoolQueryInterval)
	return pop, stub.delivered
}

// runClients builds the same pools as standalone clients, each on its own
// timer chain.
func runClients(t *testing.T, cfg Config, script [][]scripted) []*Client {
	t.Helper()
	n, host, stub, cfg := scriptNet(t, cfg, script)
	clients := make([]*Client, len(script))
	for i := range clients {
		c := New(host, &clock.Clock{}, stub, cfg)
		clients[i] = c
		n.After(stub.start.Add(time.Duration(i)*stub.stagger).Sub(n.Now()), func() {
			c.BuildPool(func(error) { c.Stop() })
		})
	}
	n.RunFor(time.Duration(cfg.PoolQueries+1) * PoolQueryInterval)
	return clients
}

// referencePool is the per-client merge populations replace: the §V
// caps, then every A record in order, skipping members by linear scan,
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
			if cfg.Caps && time.Duration(rr.TTL)*time.Second > dnsresolver.CapTTL {
				discard = true
			}
			addrs = append(addrs, rr.A)
		}
		if discard || cfg.Caps && len(addrs) > dnsresolver.CapRecords {
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

// checkScript runs script through the rows of one population and through
// standalone clients and requires both, client by client, to end with the
// reference merge's pool and Stats. It returns the population.
func checkScript(t *testing.T, cfg Config, script [][]scripted) *Population {
	t.Helper()
	pop, served := runRows(t, cfg, script)
	clients := runClients(t, cfg, script)
	for i := range script {
		want, wantStats := referencePool(cfg, served[i])
		if got := pop.PoolView(i); !slices.Equal(got, want) {
			t.Fatalf("row %d: pool %v, reference %v", i, got, want)
		}
		if got := pop.Stats(i); got != wantStats {
			t.Fatalf("row %d: stats %+v, reference %+v", i, got, wantStats)
		}
		if got := clients[i].PoolView(); !slices.Equal(got, want) {
			t.Fatalf("client %d: pool %v, reference %v", i, got, want)
		}
		if got := clients[i].Stats(); got != wantStats {
			t.Fatalf("client %d: stats %+v, reference %+v", i, got, wantStats)
		}
	}
	return pop
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
// straddle the 24-hour CapTTL.
func randomScript(rng *rand.Rand, clients, queries int) [][]scripted {
	set := responseSet()
	draw := func(q int) scripted {
		r := scripted{ttl: 86500 - uint32(rng.Intn(200))}
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
// drawn from a small set, to the rows of one population and to the same
// clients as standalone clients: both must end with the pools and Stats
// of a per-client reference merge, under every pool limit.
func TestPopulationMatchesPopulationsOfOne(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{PoolTarget: 20},
		{Caps: true},
		{PoolTarget: 60, Caps: true},
	} {
		maxAddrs, maxTTL := 0, time.Duration(0)
		if cfg.Caps {
			maxAddrs, maxTTL = dnsresolver.CapRecords, dnsresolver.CapTTL
		}
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("target%d,maxaddrs%d,maxttl%v/seed%d", cfg.PoolTarget, maxAddrs, maxTTL, seed)
			t.Run(name, func(t *testing.T) {
				pop := checkScript(t, cfg, randomScript(rand.New(rand.NewSource(seed)), 40, 8))
				if states := distinctStates(pop); states >= pop.Len() {
					t.Fatalf("%d rows hold %d distinct pool states: none is shared", pop.Len(), states)
				}
			})
		}
	}
}

// distinctStates counts the pool states rows hold: rows in one state
// share one view, and states grown from one another share its first
// element but differ in length.
func distinctStates(pop *Population) int {
	type view struct {
		first *PoolEntry
		n     int
	}
	states := make(map[view]bool)
	for r := 0; r < pop.Len(); r++ {
		v := pop.PoolView(r)
		var first *PoolEntry
		if len(v) > 0 {
			first = &v[0]
		}
		states[view{first, len(v)}] = true
	}
	return len(states)
}

// TestPoolViewAppendLeavesOthersAlone: rows of one population share pool
// arrays, and a state grows in place into its successor's entries, so
// appending to one row's view must copy rather than write into the array
// another row's pool is read from.
func TestPoolViewAppendLeavesOthersAlone(t *testing.T) {
	set := responseSet()
	first, second := scripted{rrs: set[0], ttl: 150}, scripted{rrs: set[3], ttl: 150}
	fail := scripted{fail: true}
	pop := checkScript(t, Config{}, [][]scripted{
		{first, fail, fail},
		{first, second, fail},
		{first, second, fail},
	})
	before := make([][]PoolEntry, pop.Len())
	for i := range before {
		before[i] = slices.Clone(pop.PoolView(i))
	}
	for i := range before {
		_ = append(pop.PoolView(i), PoolEntry{IP: simnet.IPv4(6, 6, 6, byte(i))})
	}
	for i := range before {
		if got := pop.PoolView(i); !slices.Equal(got, before[i]) {
			t.Fatalf("row %d's pool changed to %v after appends to other views, was %v", i, got, before[i])
		}
	}
}

// FuzzPoolAbsorb decodes arbitrary bytes into pool limits and response
// sequences — duplicate, zero and repeated addresses, over-long and empty
// answers, failed lookups — dealt to four clients: a population's rows and
// standalone clients must agree with the reference merge, and neither may
// panic.
func FuzzPoolAbsorb(f *testing.F) {
	f.Add([]byte{0x00, 4, 1, 2, 3, 4, 4, 1, 2, 5, 6, 0xff, 2, 0, 0})
	f.Add([]byte{0x45, 89, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 4, 10, 11, 1, 2})
	f.Add([]byte{0xe0, 3, 7, 7, 7, 3, 7, 7, 7, 0, 0xff, 5, 200, 201, 0, 202, 200})
	// One response, with one Gen, adds entries at query 1 for client 0
	// and at query 2 for client 1: the second may not follow the first's
	// edge.
	f.Add([]byte{0x00, 2, 1, 2, 0xff, 0xff, 0xff, 0xff, 2, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var cfg Config
		cfg.PoolTarget = int(data[0] & 0x1f)
		cfg.Caps = data[0]&0x60 != 0
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
			// CapTTL.
			responses = append(responses, scripted{rrs: addrRecords(addrs...), ttl: 86000 + 5*uint32(h)})
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

// TestPopulationStartSchedule: rows of more than one query must start
// within one interval of the first, or the first row's second query would
// overtake a later row's first; a single query may start at any time.
func TestPopulationStartSchedule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries int
		span    time.Duration
		want    error
	}{
		{"two queries within an interval", 2, PoolQueryInterval - 1, nil},
		{"two queries spanning an interval", 2, PoolQueryInterval, ErrSchedule},
		{"24 queries spanning several intervals", 24, 5 * PoolQueryInterval, ErrSchedule},
		{"one query spanning several intervals", 1, 25 * PoolQueryInterval, nil},
		{"negative query count", -1, 0, ErrSchedule},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := simnet.New(simnet.Config{Seed: 1})
			host, err := n.AddHost(clientIP)
			if err != nil {
				t.Fatal(err)
			}
			pop := NewPopulation(host, nil, Config{PoolQueries: tc.queries})
			base := n.Now().Add(time.Second)
			pop.Add(base.Add(tc.span))
			pop.Add(base)
			if err := pop.Start(); !errors.Is(err, tc.want) {
				t.Fatalf("Start: %v, want %v", err, tc.want)
			}
		})
	}
}

// scheduleAnswer is the scripted answer to one (client, query) lookup:
// synchronous, deferred by delay, or failed.
type scheduleAnswer struct {
	kind  byte // answerNow, answerLater or answerFail
	delay time.Duration
	rrs   []dnswire.RR
	ttl   uint32
}

const (
	answerNow = iota
	answerLater
	answerFail
)

// lookupEvent is one logged Lookup call or answer: whose, and when.
type lookupEvent struct {
	client, query int
	at            int64
	answer        bool
}

// scheduleStub serves scheduleAnswers and logs every call and every
// answer, so an answer that overtakes a query at the same instant shows.
// Answers are written into one scratch slice when they are delivered, as
// a resolver cache serves its views, and numbered as a resolver numbers
// its RRsets.
type scheduleStub struct {
	net     *simnet.Network
	answers [][]scheduleAnswer
	scratch []dnswire.RR
	gens    generations
	log     []lookupEvent
}

func (s *scheduleStub) lookup(client, query int, cb dnsresolver.Callback) {
	s.log = append(s.log, lookupEvent{client, query, s.net.NowUnixNano(), false})
	a := s.answers[client][query-1]
	serve := func() {
		s.log = append(s.log, lookupEvent{client, query, s.net.NowUnixNano(), true})
		if a.kind == answerFail {
			cb(dnsresolver.Result{Err: errScripted})
			return
		}
		s.scratch = append(s.scratch[:0], a.rrs...)
		for i := range s.scratch {
			s.scratch[i].TTL = a.ttl
		}
		cb(dnsresolver.Result{RRs: s.scratch, Gen: s.gens.of(a.rrs, a.ttl)})
	}
	if a.kind == answerLater {
		s.net.After(a.delay, serve)
		return
	}
	serve()
}

// rowCaller is a population's handle on a scheduleStub: the caller is the
// row the schedule is issuing a query for, at position pos; row maps
// positions back to rows.
type rowCaller struct {
	s   *scheduleStub
	pop *Population
	row []int
}

func (c *rowCaller) Lookup(_ string, _ dnswire.Type, cb dnsresolver.Callback) {
	if c.row == nil {
		c.row = make([]int, c.pop.Len())
		for r, pos := range c.pop.index {
			c.row[pos] = r
		}
	}
	c.s.lookup(c.row[c.pop.pos], int(c.pop.rows[c.pop.pos].queries), cb)
}

// clientCaller is one standalone client's handle on a scheduleStub.
type clientCaller struct {
	s               *scheduleStub
	client, queries int
}

func (c *clientCaller) Lookup(_ string, _ dnswire.Type, cb dnsresolver.Callback) {
	c.queries++
	c.s.lookup(c.client, c.queries, cb)
}

// FuzzPopulationSchedule decodes arbitrary bytes into a population — start
// times with ties, a query count and the §V caps — and a script of
// answers, each synchronous, deferred by less than PoolQueryInterval, or
// failed. Times are multiples of 1/256 of the interval, so a shared byte
// puts two of them on one nanosecond. The rows must end exactly as standalone clients that each run
// their own BuildPool from the same starts: the same pools, the same
// counters, and the same Lookup calls and answers in the same order at the
// same instants. Nothing may panic.
func FuzzPopulationSchedule(f *testing.F) {
	f.Add([]byte{0x1b, 0x00, 0, 0, 128, 255, 0, 4, 1, 2, 3, 4, 1, 128, 4, 1, 2, 5, 6, 2, 0, 1, 9, 4, 10, 11, 12, 13})
	f.Add([]byte{0x3f, 0x65, 7, 7, 7, 7, 7, 7, 7, 7, 1, 255, 89, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{0x12, 0x40, 10, 200, 10, 4, 3, 7, 7, 7, 2, 4, 8, 8, 9, 1, 0, 3, 8, 9, 10})
	// Row 0's deferred first answer lands on row 1's first query, whose
	// key is older: the query must go first.
	f.Add([]byte{0x09, 0x00, 0, 10, 1, 10, 2, 5, 6, 0, 1, 7, 0, 1, 5, 0, 0})
	// Classic clients: eight one-query rows keeping 4 servers, starting
	// across several intervals, two on one nanosecond, and a deferred
	// answer landing after a later row's query.
	f.Add([]byte{0x07, 0x04, 0, 255, 64, 64, 200, 130, 10, 40, 0, 4, 1, 2, 3, 4, 1, 200, 2, 5, 6, 2, 0, 0, 4, 1, 2, 3, 4, 3, 5, 7, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		clients, queries := 1+int(data[0]&7), 1+int(data[0]>>3&7)
		cfg := Config{PoolQueries: queries, PoolTarget: int(data[1] & 0x1f), Caps: data[1]&0x60 != 0}
		rest := data[2:]
		next := func() byte {
			if len(rest) == 0 {
				return 0
			}
			b := rest[0]
			rest = rest[1:]
			return b
		}
		// A shared byte puts two starts, or an answer and a query, on one
		// nanosecond. A single query has no later one to overtake, so its
		// rows start up to 8 intervals apart.
		span := PoolQueryInterval
		if queries == 1 {
			span *= 8
		}
		starts := make([]time.Duration, clients)
		for i := range starts {
			starts[i] = span * time.Duration(next()) / 256
		}
		answers := make([][]scheduleAnswer, clients)
		for c := range answers {
			answers[c] = make([]scheduleAnswer, queries)
			for q := range answers[c] {
				h := next()
				a := scheduleAnswer{kind: h % 3, ttl: 86000 + 5*uint32(h)}
				if a.kind == answerLater {
					a.delay = PoolQueryInterval * time.Duration(next()) / 256
				}
				n := min(int(next()), len(rest))
				var addrs []simnet.IP
				for _, b := range rest[:n] {
					addrs = append(addrs, simnet.IPv4(0, 0, b>>6, b&0x3f))
				}
				rest = rest[n:]
				a.rrs = addrRecords(addrs...)
				answers[c][q] = a
			}
		}

		type outcome struct {
			pools [][]PoolEntry
			stats []Stats
			log   []lookupEvent
		}
		run := func(rows bool) outcome {
			n := simnet.New(simnet.Config{Seed: 1})
			host, err := n.AddHost(clientIP)
			if err != nil {
				t.Fatal(err)
			}
			stub := &scheduleStub{net: n, answers: answers, gens: generations{}}
			base := n.Now().Add(time.Second)
			var out outcome
			if rows {
				caller := &rowCaller{s: stub}
				pop := NewPopulation(host, caller, cfg)
				caller.pop = pop
				for _, d := range starts {
					pop.Add(base.Add(d))
				}
				if err := pop.Start(); err != nil {
					t.Fatal(err)
				}
				n.Drain(0)
				for i := range starts {
					out.pools = append(out.pools, pop.PoolView(i))
					out.stats = append(out.stats, pop.Stats(i))
				}
			} else {
				var standalone []*Client
				for i, d := range starts {
					c := New(host, &clock.Clock{}, &clientCaller{s: stub, client: i}, cfg)
					standalone = append(standalone, c)
					n.After(base.Add(d).Sub(n.Now()), func() {
						c.BuildPool(func(error) { c.Stop() })
					})
				}
				n.Drain(0)
				for _, c := range standalone {
					out.pools = append(out.pools, c.PoolView())
					out.stats = append(out.stats, c.Stats())
				}
			}
			out.log = stub.log
			return out
		}
		got, want := run(true), run(false)
		if !slices.Equal(got.log, want.log) {
			t.Fatalf("lookups and answers %v, standalone clients %v", got.log, want.log)
		}
		if len(got.log) != 2*clients*queries {
			t.Fatalf("%d lookups and answers, want %d", len(got.log), 2*clients*queries)
		}
		for i := range starts {
			if !slices.Equal(got.pools[i], want.pools[i]) {
				t.Fatalf("row %d: pool %v, standalone %v", i, got.pools[i], want.pools[i])
			}
			if got.stats[i] != want.stats[i] {
				t.Fatalf("row %d: stats %+v, standalone %+v", i, got.stats[i], want.stats[i])
			}
		}
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
// to its allocation count: a standalone client grows its pool in place,
// so a state or an edge allocated per absorbed response fails here.
func TestBuildPoolAllocCeiling(t *testing.T) {
	build := buildPoolRig(t)
	build() // warm the event pools
	allocs := testing.AllocsPerRun(20, build)
	// Measured with go1.24: 13 — the client, its four bound callbacks,
	// three arrays and their indexes (sized for the benign harvest, for
	// the first forged set, then for the last benign response), and the
	// caller's clock and done callback.
	const ceiling = 13
	t.Logf("%.1f allocs per pool generation (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("pool generation allocates %.1f times, ceiling %d", allocs, ceiling)
	}
}

package chronos

import (
	"errors"
	"slices"
	"time"

	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ntpclient"
	"chronosntp/internal/simnet"
)

// ErrSchedule is returned by Population.Start when the rows cannot share
// one schedule.
var ErrSchedule = errors.New("chronos: population rows need a positive PoolQueries and, with more than one query, must start within one PoolQueryInterval")

// Population is a set of clients behind one resolver handle, kept as
// pointer-free rows that one schedule drives through pool generation. A
// row is a client: when it starts, the pool state it holds, and its pool
// counters. Under a Chronos Config a row is a Chronos client generating
// its pool; with PoolQueries 1 and PoolTarget n it is a classic NTP
// client's one resolution, keeping the first n distinct addresses. The
// population owns the host, the handle, the resolved Config, the pool
// states, and one queued event at a time.
//
// The schedule issues query k of every row at its start + (k−1) ·
// PoolQueryInterval, stepping through the rows in (start, row) order. That
// is the order in which per-client timer chains fire — each re-arms one
// interval after its own firing, and with more than one query every row
// starts within one interval of the others — and each query keeps the
// simnet.Key its own timer would have had, so it sorts against every
// other event exactly as that timer would. Each lookup in flight carries
// its row and query index, so asynchronous answers land where they belong
// and a synchronous cache hit allocates nothing.
//
// The rows share their pools. The paper's amplification lever is that a
// poisoned resolver hands the same forged record set to every client
// behind it, so their pools converge on a few states; the population keeps
// each distinct pool once, indexed by id, and moves rows between them.
// A pool state is immutable once a row holds it. Every absorbed response
// leaves an edge from the state it was absorbed into to the state it
// produced, keyed by the response's A-record addresses in order and, when
// it added entries, by the query index those entries carry. A row absorbs
// a response by following an existing edge, so the merge runs once per
// distinct state and response rather than once per client. A state also
// remembers the Result.Gen its last edge was followed with: a row that
// absorbs a response of that nonzero Gen carries the same addresses (the
// Lookuper contract), so it follows the edge, subject to the query-index
// check, without reading the records. Gen 0 promises nothing and takes
// the walk.
//
// A Population is not safe for concurrent use: it runs on its host's
// simnet.Network, which already serialises it.
type Population struct {
	net    *simnet.Network
	stub   Lookuper
	cfg    Config
	rows   []row       // in (start, row) order once Start has run
	index  []int32     // position in rows of each row
	states []poolState // by id; 0 is the empty pool
	wave   int         // query index the schedule issues next, 1-based
	pos    int         // position of the row it issues it for
	free   []*lookup   // pending lookups not in flight
	fireFn func()
}

// row is one client of a population.
type row struct {
	start int64      // first query, in simnet.Network.NowUnixNano terms
	key   simnet.Key // dispatch key of the row's next query
	state int32

	// Stats.PoolQueries, PoolResponses and PolicyDiscards.
	queries, responses, discards uint32
}

// lookup is one pool query in flight: the position of the row that asked
// and the query index the entries it adds carry. done is its callback,
// bound once.
type lookup struct {
	p        *Population
	pos, idx int32
	done     func(dnsresolver.Result)
}

// NewPopulation builds an empty population of clients on host that
// resolve the pool through stub under cfg, with cfg's defaults resolved.
func NewPopulation(host *simnet.Host, stub Lookuper, cfg Config) *Population {
	p := &Population{net: host.Net(), stub: stub, cfg: cfg.withDefaults(), states: make([]poolState, 1)}
	p.fireFn = p.fire
	return p
}

// Grow makes room for n more rows, so that adding them allocates nothing.
func (p *Population) Grow(n int) {
	p.rows = slices.Grow(p.rows, n)
	p.index = slices.Grow(p.index, n)
}

// Add adds a client that starts pool generation at start, with the empty
// pool. Rows are numbered from 0 in the order they are added. Add takes
// the key the client's start timer would have had, so rows must be added
// where per-client code would arm their timers, and before Start.
func (p *Population) Add(start time.Time) {
	p.index = append(p.index, int32(len(p.rows)))
	p.rows = append(p.rows, row{start: start.UnixNano(), key: p.net.Reserve()})
}

// Start arms the schedule, once, after every row is added. It fails with
// ErrSchedule unless PoolQueries is positive and, with more than one
// query, every row starts within one PoolQueryInterval of the first,
// before any row's second query; one query may start at any time.
func (p *Population) Start() error {
	if len(p.rows) == 0 {
		return nil
	}
	if p.cfg.PoolQueries <= 0 {
		return ErrSchedule
	}
	// Keep the rows in the order the schedule visits them, so it walks
	// memory in sequence. Their keys rise in the order they were added.
	for pos, r := range simnet.SortByInstant(p.rows, func(r *row) int64 { return r.start }) {
		p.index[r] = int32(pos)
	}
	if p.cfg.PoolQueries > 1 && p.rows[len(p.rows)-1].start-p.rows[0].start >= int64(PoolQueryInterval) {
		return ErrSchedule
	}
	p.wave, p.pos = 1, 0
	p.arm()
	return nil
}

// arm queues the schedule's next query under its row's key.
func (p *Population) arm() {
	r := &p.rows[p.pos]
	p.net.AtUnixNano(r.start+int64(p.wave-1)*int64(PoolQueryInterval), r.key, p.fireFn)
}

// fire issues the next query: the lookup, then, as a per-client timer
// chain would re-arm after it, the key of the row's following query.
func (p *Population) fire() {
	r := &p.rows[p.pos]
	r.queries++
	p.stub.Lookup(ntpclient.PoolName, dnswire.TypeA, p.take(p.pos, p.wave).done)
	if p.wave < p.cfg.PoolQueries {
		r.key = p.net.Reserve()
	}
	if p.pos++; p.pos == len(p.rows) {
		p.pos = 0
		if p.wave++; p.wave > p.cfg.PoolQueries {
			return
		}
	}
	p.arm()
}

// take returns a pending lookup for query idx of the row at pos.
func (p *Population) take(pos, idx int) *lookup {
	var l *lookup
	if k := len(p.free) - 1; k >= 0 {
		l, p.free = p.free[k], p.free[:k]
	} else {
		l = &lookup{p: p}
		l.done = l.absorb
	}
	l.pos, l.idx = int32(pos), int32(idx)
	return l
}

// absorb applies the §V policy to an answer and moves the row that asked
// to the resulting pool state.
func (l *lookup) absorb(res dnsresolver.Result) {
	p := l.p
	r := &p.rows[l.pos]
	idx := int(l.idx)
	p.free = append(p.free, l)
	count, ok, discard := p.cfg.admit(res)
	if discard {
		r.discards++
	}
	if !ok {
		return
	}
	r.responses++
	r.state = p.absorb(r.state, res.RRs, res.Gen, count, idx)
}

// Len reports how many rows the population holds.
func (p *Population) Len() int { return len(p.rows) }

// Stats returns row r's pool counters; the round counters stay zero.
func (p *Population) Stats(r int) Stats {
	w := &p.rows[p.index[r]]
	return Stats{PoolQueries: uint64(w.queries), PoolResponses: uint64(w.responses), PolicyDiscards: uint64(w.discards)}
}

// State returns the id of row r's pool state. Rows with one id share one
// pool, and every id is below States.
func (p *Population) State(r int) int { return int(p.rows[p.index[r]].state) }

// States reports how many pool states the population holds.
func (p *Population) States() int { return len(p.states) }

// PoolView returns row r's pool without copying. Rows in the same pool
// state get views of the same memory, which later states extend in place:
// callers must not write through a view or hold it across further
// population activity. The view's capacity is its length, so appending to
// it copies instead of writing into another state's entries.
func (p *Population) PoolView(r int) []PoolEntry {
	pool := p.states[p.rows[p.index[r]].state].entries
	return pool[:len(pool):len(pool)]
}

// poolState is one pool: entries in the order they joined. Its backing
// array is append-only and may be shared with the states grown from it,
// each of which sees a longer prefix; index locates the addresses of the
// whole array, so membership in this state is "indexed at a position
// below len(entries)".
type poolState struct {
	entries []PoolEntry
	index   []int32 // open addressing by address: position+1, 0 = empty slot
	// grown reports that a successor has been made from this state. The
	// first successor may append past entries in place; later ones copy.
	grown bool
	edges []poolEdge // responses absorbed from this state (populations only)
	last  int        // the edge the last absorb from this state followed
	gen   uint64     // the Result.Gen it was followed with; 0 = none
}

// poolEdge records one absorbed response and the id of the state it
// produced.
type poolEdge struct {
	hash  uint64   // addrHash of the response
	idx   int      // query index the added entries carry (unread when next is the source)
	addrs []uint32 // the response's A-record addresses, in order
	next  int32
}

// admit applies the §V policy to one pool lookup's result. ok reports
// whether the response may be merged, and count how many A records it
// can add; discard reports that the policy refused it. A failed lookup
// is neither merged nor discarded.
func (c *Config) admit(res dnsresolver.Result) (count int, ok, discard bool) {
	if res.Err != nil {
		return 0, false, false
	}
	// With no response policy armed, skip the validation pass and use
	// the (never smaller) RR total, which only loosens the merge's
	// reservation estimate.
	count = len(res.RRs)
	policy := c.Policy
	if policy.MaxTTL > 0 || policy.MaxAddrsPerResponse > 0 {
		count = 0
		for i := range res.RRs {
			rr := &res.RRs[i]
			if rr.Type != dnswire.TypeA {
				continue
			}
			count++
			if policy.MaxTTL > 0 && time.Duration(rr.TTL)*time.Second > policy.MaxTTL {
				return 0, false, true // the whole response is suspicious
			}
		}
		if policy.MaxAddrsPerResponse > 0 && count > policy.MaxAddrsPerResponse {
			return 0, false, true
		}
	}
	return count, true, false
}

// absorb merges an accepted response from pool query idx — rrs, holding
// at most count A records, with Result.Gen gen — into state id and returns
// the resulting state's id: the one the edge recording the response leads
// to, or a new state the merge produces, recorded by a new edge.
func (p *Population) absorb(id int32, rrs []dnswire.RR, gen uint64, count, idx int) int32 {
	s := &p.states[id]
	// Whether a response adds anything depends only on the state and the
	// addresses, so an edge back to s serves every query index. Rows in
	// one state mostly absorb the response the previous one did, so that
	// edge is tried before the response is hashed, and its addresses are
	// not compared when the response is the RRset it was followed with.
	if s.last < len(s.edges) {
		if e := &s.edges[s.last]; (e.next == id || e.idx == idx) && (gen != 0 && gen == s.gen || e.matches(rrs)) {
			s.gen = gen
			return e.next
		}
	}
	h := addrHash(rrs)
	for i := range s.edges {
		e := &s.edges[i]
		if e.hash == h && (e.next == id || e.idx == idx) && e.matches(rrs) {
			s.last, s.gen = i, gen
			return e.next
		}
	}
	t := poolState{entries: s.entries, index: s.index, grown: s.grown}
	t.merge(&p.cfg, rrs, count, idx)
	next := id
	if len(t.entries) > len(s.entries) {
		// t appended past s's end of the array, or s's array was full or
		// grown already: either way s cannot grow in place again.
		s.grown = true
		next = int32(len(p.states))
	}
	addrs := make([]uint32, 0, count)
	for i := range rrs {
		if rrs[i].Type == dnswire.TypeA {
			addrs = append(addrs, ipKey(rrs[i].A))
		}
	}
	s.last, s.gen = len(s.edges), gen
	s.edges = append(s.edges, poolEdge{hash: h, idx: idx, addrs: addrs, next: next})
	if next != id {
		p.states = append(p.states, t) // s is not used past here: this may move it
	}
	return next
}

// merge appends rrs' A records to s in order, skipping members, until the
// pool holds cfg.PoolTarget servers; count bounds how many records rrs can
// add.
func (s *poolState) merge(cfg *Config, rrs []dnswire.RR, count, idx int) {
	target := cfg.PoolTarget
	seen := 0
	for i := range rrs {
		rr := &rrs[i]
		if rr.Type != dnswire.TypeA {
			continue
		}
		seen++
		ip := simnet.IP(rr.A)
		if s.has(ip) {
			continue
		}
		if target > 0 && len(s.entries) >= target {
			break
		}
		if s.grown || len(s.entries) == cap(s.entries) {
			// Size the new array for what this response can still add, not
			// a blind doubling: a saturated pool re-absorbing a record set
			// it already holds — the steady state once poisoning lands —
			// never gets here.
			need := len(s.entries) + 1 + (count - seen)
			if target > 0 && need > target {
				need = target
			}
			s.reserve(cfg, need)
		}
		s.add(ip, idx)
	}
}

// reserve moves s into a new array, with an index to match, of capacity
// n but never less than the expected benign harvest: PoolQueries
// rotations of a standard 4-record response.
func (s *poolState) reserve(cfg *Config, n int) {
	n = max(n, cfg.PoolQueries*dnswire.BenignPoolResponseRecords)
	entries := make([]PoolEntry, 0, n)
	size := 8
	for size < 2*n {
		size *= 2
	}
	t := poolState{entries: entries, index: make([]int32, size)}
	for _, e := range s.entries {
		t.add(e.IP, e.QueryIdx)
	}
	s.entries, s.index, s.grown = t.entries, t.index, false
}

// slot returns where the index probe for ip starts.
func (s *poolState) slot(ip simnet.IP) int {
	return int((uint64(ipKey(ip))*0x9E3779B97F4A7C15)>>32) & (len(s.index) - 1)
}

// has reports whether ip is in the pool.
func (s *poolState) has(ip simnet.IP) bool {
	if len(s.index) == 0 {
		return false
	}
	array := s.entries[:cap(s.entries)]
	for i := s.slot(ip); s.index[i] != 0; i = (i + 1) & (len(s.index) - 1) {
		if pos := int(s.index[i]); array[pos-1].IP == ip {
			return pos <= len(s.entries)
		}
	}
	return false
}

// add appends an entry for an ip the pool does not hold. The caller has
// checked that s owns the end of its array and that the array has room;
// the index is sized to stay at most half full.
func (s *poolState) add(ip simnet.IP, idx int) {
	i := s.slot(ip)
	for s.index[i] != 0 {
		i = (i + 1) & (len(s.index) - 1)
	}
	s.entries = append(s.entries, PoolEntry{IP: ip, QueryIdx: idx})
	s.index[i] = int32(len(s.entries))
}

// addrHash is FNV-1a over a response's A-record addresses, in order.
func addrHash(rrs []dnswire.RR) uint64 {
	h := uint64(14695981039346656037)
	for i := range rrs {
		if rrs[i].Type == dnswire.TypeA {
			h = (h ^ uint64(ipKey(rrs[i].A))) * 1099511628211
		}
	}
	return h
}

// matches reports whether rrs carries exactly the edge's A-record
// addresses, in order.
func (e *poolEdge) matches(rrs []dnswire.RR) bool {
	j := 0
	for i := range rrs {
		if rrs[i].Type != dnswire.TypeA {
			continue
		}
		if j == len(e.addrs) || e.addrs[j] != ipKey(rrs[i].A) {
			return false
		}
		j++
	}
	return j == len(e.addrs)
}

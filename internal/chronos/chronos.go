// Package chronos implements the Chronos NTP client of Deutsch,
// Rothenberg-Schiff, Dolev and Schapira ("Preventing (Network) Time Travel
// with Chronos", NDSS 2018) — the provably secure client whose DNS-based
// pool generation this paper attacks.
//
// Chronos differs from a classic NTP client in two ways:
//
//  1. Pool generation: instead of resolving the pool name once and keeping
//     ≤4 servers, Chronos queries pool.ntp.org once an hour for 24 hours
//     and accumulates every returned address (~24 × 4 = 96 servers).
//  2. Clock update: each round samples m servers (default 15) uniformly at
//     random from the pool, discards the d (= m/3) lowest and d highest
//     offset samples, and accepts the survivors' average only if
//     (C1) the surviving samples lie within 2ω of each other, and
//     (C2) the average is within ErrBound of the local clock.
//     On failure it re-samples; after K consecutive failures it enters
//     *panic mode*: query every server in the pool, trim the top and
//     bottom thirds, and trust the middle third's average.
//
// The security guarantee — shifting the client by 100 ms takes a MitM
// attacker ~decades — holds only while fewer than one third of the pool is
// attacker-controlled. The pool generation mechanism is therefore the
// root of trust, and it stands on unauthenticated DNS.
package chronos

import (
	"errors"
	"fmt"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// Errors reported by the client.
var (
	ErrPoolEmpty     = errors.New("chronos: pool generation yielded no servers")
	ErrAlreadyBuilt  = errors.New("chronos: pool already built")
	ErrNotReady      = errors.New("chronos: pool not built")
	ErrPolicyTTL     = errors.New("chronos: response TTL exceeds policy cap")
	ErrPolicyRecords = errors.New("chronos: response record count exceeds policy cap")
)

// PoolPolicy is the §V mitigation hook applied to every DNS response
// during pool generation. The zero value is the vulnerable NDSS'18
// behaviour the paper attacks.
type PoolPolicy struct {
	// MaxAddrsPerResponse discards responses carrying more A records
	// (0 = unlimited). The paper's fix: 4.
	MaxAddrsPerResponse int
	// MaxTTL discards responses whose records carry a longer TTL
	// (0 = unlimited). The paper's fix: anything ≥ the pool-generation
	// horizon (24 h) is suspicious.
	MaxTTL time.Duration
}

// Config parameterises a Chronos client. Defaults follow the NDSS'18
// evaluation parameters.
type Config struct {
	PoolName          string        // pool domain; default "pool.ntp.org"
	PoolQueries       int           // DNS queries during pool generation; default 24
	PoolQueryInterval time.Duration // spacing of pool queries; default 1 h
	PoolTarget        int           // stop early once this many servers gathered (0 = never)

	SampleSize int           // m: servers sampled per round; default 15
	Trim       int           // d: samples discarded from each end; default m/3
	Omega      time.Duration // ω: survivor agreement bound (C1 uses 2ω); default 25 ms
	ErrBound   time.Duration // C2: |avg − local| acceptance bound; default 30 ms
	Retries    int           // K: re-sample attempts before panic; default 2
	MinReplies int           // minimum responses per round; default 2m/3

	SyncInterval time.Duration // spacing of sync rounds; default 64 s
	QueryTimeout time.Duration // per-server NTP query deadline; default 1 s

	Policy PoolPolicy // §V mitigations; zero = vulnerable

	// MinSources, when > 0, replaces the C1/C2 acceptance test with a
	// chrony-style quorum: accept the average of the largest cluster of
	// samples agreeing within 2ω iff the cluster holds at least
	// MinSources members (chrony ships minsources 1, deployments
	// hardening against falsetickers set 3). There is no trim and no
	// absolute error bound — E11 contrasts exactly this against C1/C2
	// under the same attacker.
	MinSources int

	// Auth gives the client per-server authentication requirements.
	// nil queries every server unauthenticated with requests
	// byte-identical to the pre-auth client.
	Auth *AuthPolicy
}

// AuthPolicy maps pool servers to authentication requirements. In the
// paper's threat model the pool is heterogeneous — some servers speak
// authenticated NTP, most do not — so the policy is a per-IP lookup
// rather than a single client-wide credential.
type AuthPolicy struct {
	// ForServer returns the ClientAuth for one pool server, or nil for
	// an unauthenticated association. The result is cached per IP for
	// the client's lifetime, so stateful credentials (NTS sessions) are
	// created once per server. ForServer itself may be nil: the client
	// is then unauthenticated everywhere but still KoD-aware, believing
	// any origin-valid kiss — the vulnerable baseline the forged-KoD
	// denial move exploits.
	ForServer func(ip simnet.IP) *ntpauth.ClientAuth
}

func (c Config) withDefaults() Config {
	if c.PoolName == "" {
		c.PoolName = "pool.ntp.org"
	}
	if c.PoolQueries == 0 {
		c.PoolQueries = 24
	}
	if c.PoolQueryInterval == 0 {
		c.PoolQueryInterval = time.Hour
	}
	if c.SampleSize == 0 {
		c.SampleSize = 15
	}
	if c.Trim == 0 {
		c.Trim = c.SampleSize / 3
	}
	if c.Omega == 0 {
		c.Omega = 25 * time.Millisecond
	}
	if c.ErrBound == 0 {
		c.ErrBound = 30 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.MinReplies == 0 {
		c.MinReplies = 2 * c.SampleSize / 3
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = 64 * time.Second
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = time.Second
	}
	return c
}

// Stats counts client activity for the experiments.
type Stats struct {
	PoolQueries     uint64 // DNS queries issued during pool generation
	PoolResponses   uint64 // DNS responses accepted
	PolicyDiscards  uint64 // responses discarded by the §V policy
	Rounds          uint64 // sync rounds started
	Updates         uint64 // clock updates from the normal path
	Resamples       uint64 // failed attempts that triggered a re-sample
	Panics          uint64 // panic-mode activations
	PanicUpdates    uint64 // clock updates applied by panic mode
	IncompleteRound uint64 // rounds aborted for lack of replies
	KoDKisses       uint64 // Kiss-o'-Death replies received (believed or not)
	AuthRejects     uint64 // replies dropped by the authentication policy
	Demobilized     uint64 // servers demobilized by believed DENY/RSTR kisses
}

// PoolEntry records one pool member and how it got there. AddedAt is
// virtual time as Unix nanoseconds rather than a time.Time: a time.Time
// drags a *Location pointer into every entry, and at fleet scale the
// pool slices of ~100k live clients are exactly what the GC would then
// have to scan. A pointer-free PoolEntry keeps them in noscan spans.
type PoolEntry struct {
	IP       simnet.IP
	AddedAt  int64 // virtual time the entry joined, Unix ns
	QueryIdx int   // which pool-generation query produced it (1-based)
}

// AddedTime returns the entry's join time as a time.Time.
func (e PoolEntry) AddedTime() time.Time { return time.Unix(0, e.AddedAt) }

// Lookuper is the client's DNS dependency (an alias of the shared
// dnsresolver.Lookuper): *dnsresolver.Stub satisfies it over the wire, a
// *dnsresolver.Resolver serves as the fleet's direct shared handle, and
// the mitigation package substitutes a multi-resolver consensus
// implementation (the paper's recommended direction, [12]).
type Lookuper = dnsresolver.Lookuper

// Client is a Chronos NTP client on a simulated host.
type Client struct {
	host *simnet.Host
	clk  *clock.Clock
	stub Lookuper
	cfg  Config
	rule Rule

	pool      []PoolEntry
	poolIPs   []uint32 // sorted membership index over pool (see poolAdd)
	poolBuilt bool
	building  bool
	queryIdx  int
	buildDone func(error)

	stopped bool
	timer   simnet.Timer
	round   *Round
	stats   Stats
	wireBuf []byte // NTP request encode scratch, reused across samples

	// Method values handed to the event queue, bound once at construction
	// so the per-client scheduling steady state allocates no closures.
	poolQueryFn   func()
	finishBuildFn func()
	startRoundFn  func()

	// absorbFn is the pool-query response callback, bound once; the query
	// index it applies rides in pendingIdx (see poolQuery).
	absorbFn   func(dnsresolver.Result)
	pendingIdx int

	// Per-server auth state, allocated only when cfg.Auth is set so the
	// unauthenticated client carries no extra footprint at fleet scale.
	authCache map[uint32]*ntpauth.ClientAuth
	kodState  map[uint32]*ntpauth.AssocState
}

// authFor returns (caching) the ClientAuth for a pool server.
func (c *Client) authFor(ip simnet.IP) *ntpauth.ClientAuth {
	k := ipKey(ip)
	if a, ok := c.authCache[k]; ok {
		return a
	}
	var a *ntpauth.ClientAuth
	if c.cfg.Auth.ForServer != nil {
		a = c.cfg.Auth.ForServer(ip)
	}
	if c.authCache == nil {
		c.authCache = make(map[uint32]*ntpauth.ClientAuth)
	}
	c.authCache[k] = a
	return a
}

// kodFor returns (caching) the KoD state machine for a pool server.
func (c *Client) kodFor(ip simnet.IP) *ntpauth.AssocState {
	k := ipKey(ip)
	if st, ok := c.kodState[k]; ok {
		return st
	}
	if c.kodState == nil {
		c.kodState = make(map[uint32]*ntpauth.AssocState)
	}
	st := new(ntpauth.AssocState)
	c.kodState[k] = st
	return st
}

// UsableServers reports how many pool servers are not demobilized by
// KoD (experiment instrumentation).
func (c *Client) UsableServers() int {
	n := len(c.pool)
	for _, st := range c.kodState {
		if !st.Usable() {
			n--
		}
	}
	return n
}

// New builds a Chronos client. stub may be nil when the pool is seeded
// directly via SeedPool.
func New(host *simnet.Host, clk *clock.Clock, stub Lookuper, cfg Config) *Client {
	rule := NewRule(cfg)
	c := &Client{
		host: host,
		clk:  clk,
		stub: stub,
		cfg:  rule.Config(),
		rule: rule,
	}
	c.poolQueryFn = c.poolQuery
	c.finishBuildFn = c.finishBuild
	c.startRoundFn = c.startRound
	c.absorbFn = func(res dnsresolver.Result) { c.absorbPoolResponse(c.pendingIdx, res) }
	return c
}

// Clock returns the disciplined clock.
func (c *Client) Clock() *clock.Clock { return c.clk }

// Stats returns an activity snapshot.
func (c *Client) Stats() Stats { return c.stats }

// Config returns the effective configuration (defaults applied).
func (c *Client) Config() Config { return c.cfg }

// Pool returns a copy of the current pool.
func (c *Client) Pool() []PoolEntry {
	out := make([]PoolEntry, len(c.pool))
	copy(out, c.pool)
	return out
}

// PoolView returns the live pool slice without copying. Callers must not
// mutate it or hold it across further client activity; fleet measurement
// loops read it in place to avoid one copy per client.
func (c *Client) PoolView() []PoolEntry { return c.pool }

// ipKey packs an IP into a comparable integer for the membership index.
func ipKey(ip simnet.IP) uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// poolHas reports whether ip is already in the pool, via binary search
// over the sorted membership index. Merging an 89-record poisoned
// response into a ~130-entry pool happens for every query of every
// client at fleet scale, so membership is O(log n) on a flat []uint32
// instead of a linear struct scan or a side map (two allocations per
// client).
func (c *Client) poolHas(ip simnet.IP) bool {
	i := searchIPs(c.poolIPs, ipKey(ip))
	return i < len(c.poolIPs) && c.poolIPs[i] == ipKey(ip)
}

// searchIPs is slices.BinarySearch specialized to the IP index: the
// generic shape-dictionary dispatch showed up at fleet scale, and a
// concrete uint32 loop compiles to branch-free probes.
func searchIPs(s []uint32, k uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// poolReserve grows the pool and its index to hold at least n entries in
// one step. Absorbing a response knows exactly how many records it may
// add, so sizing once up front avoids the doubling-growth reallocations
// that otherwise dominate fleet-scale allocation (an 89-record poisoned
// response would grow a 24-entry pool three times).
func (c *Client) poolReserve(n int) {
	if n <= cap(c.pool) {
		return
	}
	if min := c.cfg.PoolQueries * dnswire.BenignPoolResponseRecords; n < min {
		// First reservation: size for the expected benign harvest
		// (PoolQueries rotations of a standard 4-record response).
		n = min
	}
	pool := make([]PoolEntry, len(c.pool), n)
	copy(pool, c.pool)
	c.pool = pool
	ips := make([]uint32, len(c.poolIPs), n)
	copy(ips, c.poolIPs)
	c.poolIPs = ips
}

// poolAdd appends a pool entry (callers check membership first and
// reserve capacity) and keeps the sorted IP index in step.
func (c *Client) poolAdd(e PoolEntry) {
	c.pool = append(c.pool, e)
	k := ipKey(e.IP)
	i := searchIPs(c.poolIPs, k)
	c.poolIPs = append(c.poolIPs, 0)
	copy(c.poolIPs[i+1:], c.poolIPs[i:])
	c.poolIPs[i] = k
}

// PoolSize returns the number of distinct servers gathered.
func (c *Client) PoolSize() int { return len(c.pool) }

// PoolBuilt reports whether pool generation has completed.
func (c *Client) PoolBuilt() bool { return c.poolBuilt }

// Offset reports the client clock's error against true time (experiment
// instrumentation; invisible to a real client).
func (c *Client) Offset() time.Duration {
	return c.clk.Offset(c.host.Net().Now())
}

// BuildPool runs the Chronos pool-generation mechanism: cfg.PoolQueries
// DNS queries for cfg.PoolName spaced cfg.PoolQueryInterval apart, each
// contributing its A records to the pool. done fires when generation
// completes (possibly with ErrPoolEmpty).
func (c *Client) BuildPool(done func(error)) {
	if c.poolBuilt || c.building {
		if done != nil {
			done(ErrAlreadyBuilt)
		}
		return
	}
	c.building = true
	c.buildDone = done
	c.queryIdx = 0
	c.poolQuery()
}

// poolQuery issues one pool-generation DNS query and schedules the next.
func (c *Client) poolQuery() {
	if c.stopped {
		c.finishBuild()
		return
	}
	c.queryIdx++
	// Pool queries are spaced PoolQueryInterval (hours) apart while
	// responses resolve in at most seconds, so at most one is ever
	// outstanding: the pending query index can live on the client and the
	// absorb callback is the same bound value every time, instead of a
	// fresh closure per query.
	c.pendingIdx = c.queryIdx
	c.stats.PoolQueries++
	c.stub.Lookup(c.cfg.PoolName, dnswire.TypeA, c.absorbFn)
	if c.queryIdx >= c.cfg.PoolQueries {
		// Allow the last response to arrive, then finish.
		c.host.Net().After(c.cfg.QueryTimeout+5*time.Second, c.finishBuildFn)
		return
	}
	c.timer = c.host.Net().After(c.cfg.PoolQueryInterval, c.poolQueryFn)
}

// absorbPoolResponse applies the §V policy and merges a pool response.
func (c *Client) absorbPoolResponse(idx int, res dnsresolver.Result) {
	if res.Err != nil {
		return
	}
	now := c.host.Net().NowUnixNano()
	// count is how many A records the response can still contribute; when
	// no response policy is armed we skip the validation pre-pass and use
	// the (never smaller) RR total, which only loosens the reservation
	// estimate below.
	count := len(res.RRs)
	if c.cfg.Policy.MaxTTL > 0 || c.cfg.Policy.MaxAddrsPerResponse > 0 {
		count = 0
		for i := range res.RRs {
			rr := &res.RRs[i]
			if rr.Type != dnswire.TypeA {
				continue
			}
			count++
			if c.cfg.Policy.MaxTTL > 0 && time.Duration(rr.TTL)*time.Second > c.cfg.Policy.MaxTTL {
				c.stats.PolicyDiscards++
				return // discard the whole response: it is suspicious
			}
		}
		if c.cfg.Policy.MaxAddrsPerResponse > 0 && count > c.cfg.Policy.MaxAddrsPerResponse {
			c.stats.PolicyDiscards++
			return
		}
	}
	c.stats.PoolResponses++
	target := c.cfg.PoolTarget
	seen := 0
	for i := range res.RRs {
		rr := &res.RRs[i]
		if rr.Type != dnswire.TypeA {
			continue
		}
		seen++
		ip := simnet.IP(rr.A)
		if c.poolHas(ip) {
			continue
		}
		if target > 0 && len(c.pool) >= target {
			break
		}
		if len(c.pool) == cap(c.pool) {
			// Grow to an upper bound of what this response can still
			// add (the unprocessed A records), not a blind doubling. A
			// saturated pool re-absorbing an already-held record set —
			// the steady state once poisoning lands — never gets here,
			// so it costs no reservation at all.
			need := len(c.pool) + 1 + (count - seen)
			if target > 0 && need > target {
				need = target
			}
			c.poolReserve(need)
		}
		c.poolAdd(PoolEntry{IP: ip, AddedAt: now, QueryIdx: idx})
	}
}

// finishBuild completes pool generation and starts the sync loop.
func (c *Client) finishBuild() {
	if c.poolBuilt {
		return
	}
	c.building = false
	c.poolBuilt = true
	done := c.buildDone
	c.buildDone = nil
	if len(c.pool) == 0 {
		if done != nil {
			done(ErrPoolEmpty)
		}
		return
	}
	if !c.stopped {
		c.scheduleRound(c.cfg.SyncInterval)
	}
	if done != nil {
		done(nil)
	}
}

// SeedPool installs a pre-built pool directly, bypassing DNS generation,
// and starts the sync loop. Experiments that study the clock-update
// algorithm in isolation (e.g. the security-bound reproduction) use it.
func (c *Client) SeedPool(ips []simnet.IP) error {
	if c.poolBuilt || c.building {
		return ErrAlreadyBuilt
	}
	if len(ips) == 0 {
		return ErrPoolEmpty
	}
	now := c.host.Net().NowUnixNano()
	c.poolReserve(len(ips))
	for _, ip := range ips {
		if c.poolHas(ip) {
			continue
		}
		c.poolAdd(PoolEntry{IP: ip, AddedAt: now})
	}
	c.poolBuilt = true
	c.scheduleRound(c.cfg.SyncInterval)
	return nil
}

// Stop halts all activity.
func (c *Client) Stop() {
	c.stopped = true
	c.timer.Cancel()
}

func (c *Client) scheduleRound(d time.Duration) {
	if c.stopped {
		return
	}
	c.timer = c.host.Net().After(d, c.startRoundFn)
}

// startRound begins one Chronos sync round with a fresh escalation state.
func (c *Client) startRound() {
	if c.stopped || len(c.pool) == 0 {
		return
	}
	c.stats.Rounds++
	c.round = NewRound(c.cfg.Retries)
	c.sampleAttempt()
}

// sampleAttempt performs one sampling attempt of the current round. The
// indices come from Rule.SampleIndices — the same draw the real-socket
// wirenet.Syncer makes — so sampling behaviour cannot diverge between
// the simulated and wire transports.
func (c *Client) sampleAttempt() {
	idx := c.rule.SampleIndices(c.host.Net().Rand(), len(c.pool))
	sample := make([]simnet.IP, len(idx))
	for i, j := range idx {
		sample[i] = c.pool[j].IP
	}
	c.querySample(sample, c.evaluate)
}

// querySample performs one-shot NTP exchanges with every sampled server
// and delivers the collected offset samples after the query deadline.
func (c *Client) querySample(sample []simnet.IP, done func([]time.Duration)) {
	net := c.host.Net()
	offsets := make([]time.Duration, 0, len(sample))
	for _, ip := range sample {
		c.queryOne(simnet.Addr{IP: ip, Port: ntpwire.Port}, func(off time.Duration, ok bool) {
			if ok {
				offsets = append(offsets, off)
			}
		})
	}
	net.After(c.cfg.QueryTimeout, func() { done(offsets) })
}

// queryOne sends a single NTP client request with origin validation
// and, when an auth policy is configured, per-server credentials and
// Kiss-o'-Death handling.
func (c *Client) queryOne(addr simnet.Addr, cb func(time.Duration, bool)) {
	net := c.host.Net()
	var auth *ntpauth.ClientAuth
	var kst *ntpauth.AssocState
	if c.cfg.Auth != nil {
		auth = c.authFor(addr.IP)
		kst = c.kodFor(addr.IP)
		if !kst.Usable() {
			// Demobilized by DENY/RSTR: never query again. The sample
			// simply never arrives, shrinking this round's reply count —
			// which is exactly how denial pressure reaches the C1/C2 and
			// quorum rules.
			cb(0, false)
			return
		}
	}
	port := c.host.EphemeralPort()
	if port == 0 {
		cb(0, false)
		return
	}
	trueT1 := net.Now()
	t1 := c.clk.Now(trueT1)
	answered := false
	var timeout simnet.Timer
	err := c.host.Listen(port, func(now time.Time, meta simnet.Meta, payload []byte) {
		if answered || meta.From != addr {
			return
		}
		var resp ntpwire.Packet
		if err := ntpwire.DecodeInto(&resp, payload); err != nil {
			return
		}
		if kst != nil && ntpauth.IsKoD(&resp) {
			// Believe only kisses that echo our origin, and only
			// authenticated ones on require-auth associations (RFC 8915
			// §5.7) — the property that disarms forged-KoD denial.
			if resp.OriginTime != ntpwire.TimestampFromTime(t1) {
				return
			}
			c.stats.KoDKisses++
			authed, _ := auth.VerifyResponse(payload)
			wasUsable := kst.Usable()
			kst.OnKoD(ntpauth.Code(&resp), authed, auth.RequiresAuth())
			if wasUsable && !kst.Usable() {
				c.stats.Demobilized++
			}
			answered = true
			c.host.Close(port)
			timeout.Cancel()
			cb(0, false)
			return
		}
		if !ntpwire.ValidServerResponse(&resp, ntpwire.TimestampFromTime(t1)) {
			return
		}
		if auth != nil {
			if _, acceptable := auth.VerifyResponse(payload); !acceptable {
				c.stats.AuthRejects++
				return
			}
		}
		answered = true
		c.host.Close(port)
		// Cancel the pending timeout so answered queries leave no dead
		// event behind — at long horizons these no-op wakeups dominate
		// the event queue.
		timeout.Cancel()
		t4 := c.clk.Now(now)
		off, _ := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
		cb(off, true)
	})
	if err != nil {
		cb(0, false)
		return
	}
	var req ntpwire.Packet
	ntpwire.FillClientPacket(&req, t1)
	// SendUDP copies the payload into a pooled buffer, so one request
	// scratch per client serves every sample without allocating. The
	// auth policy appends this server's credentials (no-op when nil).
	c.wireBuf = req.AppendEncode(c.wireBuf[:0])
	if auth != nil {
		c.wireBuf = auth.SealRequest(c.wireBuf)
	}
	_ = c.host.SendUDP(port, addr, c.wireBuf)
	timeout = net.After(c.cfg.QueryTimeout, func() {
		if !answered {
			c.host.Close(port)
			cb(0, false)
		}
	})
}

// evaluate applies the Chronos update rule to one attempt's samples and
// follows the Round state machine's escalation decision.
func (c *Client) evaluate(offsets []time.Duration) {
	if c.stopped {
		return
	}
	v := c.rule.Evaluate(offsets)
	if v.Reason == FailInsufficient {
		c.stats.IncompleteRound++
	}
	switch c.round.Submit(v) {
	case Apply:
		now := c.host.Net().Now()
		c.clk.Step(now, v.Update)
		c.stats.Updates++
		c.scheduleRound(c.cfg.SyncInterval)
	case Resample:
		c.stats.Resamples++
		c.sampleAttempt()
	case Panic:
		c.panic()
	}
}

// panic queries every pool server, trims the top and bottom thirds, and
// trusts the middle third's average — the Chronos recovery mode. With an
// honest-majority pool this restores correct time; with an
// attacker-supermajority pool (the paper's end state) it hands the clock
// to the attacker with no further checks.
func (c *Client) panic() {
	c.stats.Panics++
	all := make([]simnet.IP, len(c.pool))
	for i, e := range c.pool {
		all[i] = e.IP
	}
	c.querySample(all, func(offsets []time.Duration) {
		if c.stopped {
			return
		}
		avg, ok := c.rule.PanicUpdate(offsets)
		if !ok {
			c.stats.IncompleteRound++
			c.scheduleRound(c.cfg.SyncInterval)
			return
		}
		now := c.host.Net().Now()
		c.clk.Step(now, avg)
		c.stats.PanicUpdates++
		c.scheduleRound(c.cfg.SyncInterval)
	})
}

func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// String implements fmt.Stringer.
func (c *Client) String() string {
	return fmt.Sprintf("chronos{pool=%d updates=%d panics=%d}", len(c.pool), c.stats.Updates, c.stats.Panics)
}

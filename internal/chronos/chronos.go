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
//     On failure it re-samples up to K times; one more failure enters
//     *panic mode*: query every server in the pool, trim the top and
//     bottom thirds, and trust the middle third's average.
//
// Only m is configurable. ω = 25 ms, ErrBound = 30 ms and K = 2 are the
// NDSS'18 values, fixed as constants, and d follows from m. So are the
// pool-generation spacing of one hour and the 64 s sync interval; the
// number of pool queries defaults to 24.
//
// The security guarantee — shifting the client by 100 ms takes a MitM
// attacker ~decades — holds only while fewer than one third of the pool is
// attacker-controlled. The pool generation mechanism is therefore the
// root of trust, and it stands on unauthenticated DNS.
//
// Client is a standalone client on its own timer chain; E1–E8, shiftsim and
// the real-socket syncer use it. A fleet's clients behind one resolver are
// instead rows of a Population: one schedule drives their pool generation
// in the order per-client timer chains would, and they share their pools,
// because a poisoned resolver hands every client behind it the same forged
// record set and their pools converge on a few immutable states that the
// population keeps once. Population.PoolView therefore returns memory
// shared with other rows; it is read-only. Both run the same §V caps
// check and the same merge. The same row engine drives a fleet's classic
// NTP clients as a one-query population whose pools stop at the servers
// a classic client keeps.
package chronos

import (
	"errors"
	"fmt"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpclient"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// Errors reported by the client.
var (
	ErrPoolEmpty    = errors.New("chronos: pool generation yielded no servers")
	ErrAlreadyBuilt = errors.New("chronos: pool already built")
	ErrConfig       = errors.New("chronos: invalid config")
)

// The NDSS'18 schedule, which fixes the paper's attack window: pool
// generation queries ntpclient.PoolName DefaultPoolQueries times,
// PoolQueryInterval apart, and the client then syncs every SyncInterval.
const (
	DefaultPoolQueries = 24
	PoolQueryInterval  = time.Hour
	SyncInterval       = 64 * time.Second
)

// Config parameterises a Chronos client. Defaults follow the NDSS'18
// evaluation parameters; the update rule's other parameters and the
// schedule are fixed at them (see Rule and SyncInterval).
type Config struct {
	PoolQueries int // DNS queries during pool generation; default DefaultPoolQueries
	PoolTarget  int // stop early once this many servers gathered (0 = never)

	SampleSize int // m: servers sampled per round; default 15

	QueryTimeout time.Duration // per-server NTP query deadline; default 1 s

	// Caps discards every pool-generation response past the §V caps:
	// more than dnsresolver.CapRecords A records, or one with a TTL past
	// dnsresolver.CapTTL. False is the vulnerable NDSS'18 client the
	// paper attacks.
	Caps bool

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
	// the client's lifetime, so each server's MAC scratch is built
	// once. ForServer itself may be nil: the client is then
	// unauthenticated everywhere but still KoD-aware, believing any
	// origin-valid kiss — the vulnerable baseline the forged-KoD denial
	// move exploits.
	ForServer func(ip simnet.IP) *ntpauth.ClientAuth
}

func (c Config) withDefaults() Config {
	if c.PoolQueries == 0 {
		c.PoolQueries = DefaultPoolQueries
	}
	if c.SampleSize == 0 {
		c.SampleSize = 15
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = time.Second
	}
	return c
}

// Validate reports whether c describes a client the rule can run. Zero
// fields take their defaults first; every value still out of range is an
// error wrapping ErrConfig, and nothing is clamped: a sample size below
// 1, a negative PoolQueries, PoolTarget or QueryTimeout, or a MinSources
// quorum outside 0..SampleSize. A bound relative to a pool of given size
// is the caller's to check.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.SampleSize < 1:
		return fmt.Errorf("%w: sample size %d below 1", ErrConfig, c.SampleSize)
	case c.PoolQueries < 0 || c.PoolTarget < 0:
		return fmt.Errorf("%w: negative PoolQueries %d or PoolTarget %d", ErrConfig, c.PoolQueries, c.PoolTarget)
	case c.QueryTimeout < 0:
		return fmt.Errorf("%w: negative query timeout %v", ErrConfig, c.QueryTimeout)
	case c.MinSources < 0 || c.MinSources > c.SampleSize:
		return fmt.Errorf("%w: quorum of %d sources outside 0..%d (the sample)", ErrConfig, c.MinSources, c.SampleSize)
	}
	return nil
}

// Stats counts client activity for the experiments. Round.Offer keeps
// the six round counters, Rounds through IncompleteRound, and
// ntpclient.Exchange the Replies it refuses.
type Stats struct {
	PoolQueries     uint64 // DNS queries issued during pool generation
	PoolResponses   uint64 // DNS responses accepted
	PolicyDiscards  uint64 // responses discarded by the §V caps
	Rounds          uint64 // sync rounds started
	Updates         uint64 // clock updates from the normal path
	Resamples       uint64 // failed attempts that triggered a re-sample
	Panics          uint64 // panic-mode activations
	PanicUpdates    uint64 // clock updates applied by panic mode
	IncompleteRound uint64 // attempts and panic sweeps with too few replies
	ntpclient.Replies
}

// PoolEntry records one pool member and the pool-generation query that
// produced it (1-based; 0 for a pool installed by SeedPool).
type PoolEntry struct {
	IP       simnet.IP
	QueryIdx int
}

// Lookuper is the client's DNS dependency (an alias of the shared
// dnsresolver.Lookuper): *dnsresolver.Stub satisfies it over the wire, a
// *dnsresolver.Resolver serves as the fleet's direct shared handle, and
// the mitigation package substitutes a multi-resolver consensus
// implementation (the paper's recommended direction, [12]).
type Lookuper = dnsresolver.Lookuper

// Client is a Chronos NTP client on a simulated host.
type Client struct {
	host *simnet.Host
	stub Lookuper
	rule Rule // holds the resolved Config
	clk  *clock.Clock
	pool poolState // grows in place

	poolBuilt bool
	building  bool
	queryIdx  int
	buildDone func(error)

	stopped bool
	timer   simnet.Timer
	round   Round
	stats   Stats
	wireBuf []byte // NTP request encode scratch, reused across exchanges

	// Method values handed to the event queue, bound once at construction
	// so the per-client scheduling steady state allocates no closures.
	poolQueryFn   func()
	finishBuildFn func()
	startRoundFn  func()

	// absorbFn is the pool-query response callback, bound once; the query
	// index it applies rides in pendingIdx (see poolQuery).
	absorbFn   func(dnsresolver.Result)
	pendingIdx int

	// Per-server policy, allocated only when cfg.Auth is set so the
	// unauthenticated client carries no extra footprint.
	servers map[uint32]*server
}

// server is one pool server's policy on one client: the credentials
// the client holds for it and its Kiss-o'-Death state.
type server struct {
	auth *ntpauth.ClientAuth
	kod  ntpauth.AssocState
}

// cfg returns the effective configuration.
func (c *Client) cfg() *Config { return &c.rule.cfg }

// serverFor returns (creating) the policy of a pool server.
func (c *Client) serverFor(ip simnet.IP) *server {
	k := ipKey(ip)
	if s, ok := c.servers[k]; ok {
		return s
	}
	s := new(server)
	if c.cfg().Auth.ForServer != nil {
		s.auth = c.cfg().Auth.ForServer(ip)
	}
	if c.servers == nil {
		c.servers = make(map[uint32]*server)
	}
	c.servers[k] = s
	return s
}

// New builds a standalone Chronos client, whose pool grows in place. stub
// may be nil when the pool is seeded directly via SeedPool. cfg must pass
// Validate: New does not check it, and a sample size below 1 panics the
// first round.
func New(host *simnet.Host, clk *clock.Clock, stub Lookuper, cfg Config) *Client {
	c := &Client{host: host, stub: stub, rule: NewRule(cfg), clk: clk}
	c.bind()
	return c
}

// bind creates the client's event callbacks.
func (c *Client) bind() {
	c.poolQueryFn = c.poolQuery
	c.finishBuildFn = c.finishBuild
	c.startRoundFn = c.startRound
	c.absorbFn = func(res dnsresolver.Result) { c.absorbPoolResponse(c.pendingIdx, res) }
}

// Clock returns the disciplined clock.
func (c *Client) Clock() *clock.Clock { return c.clk }

// Net returns the simulated network the client's host is attached to.
func (c *Client) Net() *simnet.Network { return c.host.Net() }

// Stats returns an activity snapshot.
func (c *Client) Stats() Stats { return c.stats }

// Pool returns a copy of the current pool.
func (c *Client) Pool() []PoolEntry {
	pool := c.PoolView()
	out := make([]PoolEntry, len(pool))
	copy(out, pool)
	return out
}

// PoolView returns the current pool without copying. The view aliases the
// client's pool, which grows in place: callers must not write through it
// or hold it across further client activity. Its capacity is its length,
// so appending to it copies.
func (c *Client) PoolView() []PoolEntry {
	pool := c.pool.entries
	return pool[:len(pool):len(pool)]
}

// ipKey packs an IP into a comparable integer for the pool index and the
// per-server policy map.
func ipKey(ip simnet.IP) uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// PoolSize returns the number of distinct servers gathered.
func (c *Client) PoolSize() int { return len(c.pool.entries) }

// Offset reports the client clock's error against true time (experiment
// instrumentation; invisible to a real client).
func (c *Client) Offset() time.Duration {
	return c.clk.Offset(c.Net().Now())
}

// BuildPool runs the Chronos pool-generation mechanism: cfg.PoolQueries
// DNS queries for ntpclient.PoolName spaced PoolQueryInterval apart, each
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
	cfg := c.cfg()
	c.queryIdx++
	// Pool queries are spaced PoolQueryInterval (hours) apart while
	// responses resolve in at most seconds, so at most one is ever
	// outstanding: the pending query index can live on the client and the
	// absorb callback is the same bound value every time, instead of a
	// fresh closure per query.
	c.pendingIdx = c.queryIdx
	c.stats.PoolQueries++
	c.stub.Lookup(ntpclient.PoolName, dnswire.TypeA, c.absorbFn)
	if c.queryIdx >= cfg.PoolQueries {
		// Allow the last response to arrive, then finish.
		c.Net().After(cfg.QueryTimeout+5*time.Second, c.finishBuildFn)
		return
	}
	c.timer = c.Net().After(PoolQueryInterval, c.poolQueryFn)
}

// absorbPoolResponse applies the §V caps to a pool response and merges
// it into the client's pool.
func (c *Client) absorbPoolResponse(idx int, res dnsresolver.Result) {
	count, ok, discard := c.cfg().admit(res)
	if discard {
		c.stats.PolicyDiscards++
	}
	if !ok {
		return
	}
	c.stats.PoolResponses++
	c.pool.merge(c.cfg(), res.RRs, count, idx)
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
	if c.PoolSize() == 0 {
		if done != nil {
			done(ErrPoolEmpty)
		}
		return
	}
	if !c.stopped {
		c.scheduleRound(SyncInterval)
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
	c.pool.reserve(c.cfg(), len(ips))
	for _, ip := range ips {
		if !c.pool.has(ip) {
			c.pool.add(ip, 0)
		}
	}
	c.poolBuilt = true
	c.scheduleRound(SyncInterval)
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
	c.timer = c.Net().After(d, c.startRoundFn)
}

// startRound begins one Chronos sync round.
func (c *Client) startRound() {
	if c.stopped || c.PoolSize() == 0 {
		return
	}
	c.round = c.rule.Begin(&c.stats)
	c.sampleAttempt()
}

// sampleAttempt performs one sampling attempt of the current round. The
// indices come from Rule.SampleIndices — the same draw the real-socket
// wirenet.Syncer makes — so sampling behaviour cannot diverge between
// the simulated and wire transports.
func (c *Client) sampleAttempt() {
	pool := c.pool.entries
	idx := c.rule.SampleIndices(c.Net().Rand(), len(pool))
	sample := make([]simnet.IP, len(idx))
	for i, j := range idx {
		sample[i] = pool[j].IP
	}
	c.querySample(sample)
}

// querySample queries every sampled server and offers the collected
// offsets to the round after the query deadline.
func (c *Client) querySample(sample []simnet.IP) {
	net := c.Net()
	timeout := c.cfg().QueryTimeout
	offsets := make([]time.Duration, 0, len(sample))
	for _, ip := range sample {
		c.Query(simnet.Addr{IP: ip, Port: ntpwire.Port}, timeout, func(off, _ time.Duration, ok bool) {
			if ok {
				offsets = append(offsets, off)
			}
		})
	}
	net.After(timeout, func() { c.offer(offsets) })
}

// Query performs one NTP exchange with addr through ntpclient.Exchange,
// which calls cb exactly once — with the measured offset and delay when
// a reply passes ntpauth.ClientAuth.CheckReply, or with ok false on a
// kiss, a timeout after timeout of virtual time, or when the server
// cannot be queried. Query adds only Chronos's per-server policy: with
// an auth policy, each server's credentials seal the request, its
// kisses drive its KoD state, and a demobilized server is never queried
// again.
func (c *Client) Query(addr simnet.Addr, timeout time.Duration, cb func(off, delay time.Duration, ok bool)) {
	var auth *ntpauth.ClientAuth
	var kod *ntpauth.AssocState
	if c.cfg().Auth != nil {
		s := c.serverFor(addr.IP)
		if !s.kod.Usable() {
			// Demobilized by DENY/RSTR: never query again. The sample
			// simply never arrives, shrinking this round's reply count —
			// which is exactly how denial pressure reaches the C1/C2 and
			// quorum rules.
			cb(0, 0, false)
			return
		}
		auth, kod = s.auth, &s.kod
	}
	ntpclient.Exchange(c.host, c.clk, addr, auth, kod, timeout, &c.wireBuf, &c.stats.Replies, cb)
}

// offer hands one batch of offsets to the round and carries out its
// decision: step the clock, re-sample, or sweep the whole pool — the
// Chronos panic mode, which trusts the middle third of every server's
// reply. With an honest-majority pool this restores correct time; with
// an attacker-supermajority pool (the paper's end state) it hands the
// clock to the attacker with no further checks.
func (c *Client) offer(offsets []time.Duration) {
	if c.stopped {
		return
	}
	v, act := c.round.Offer(offsets)
	switch act {
	case Apply:
		c.clk.Step(c.Net().Now(), v.Update)
		c.scheduleRound(SyncInterval)
	case Resample:
		c.sampleAttempt()
	case Panic:
		pool := c.pool.entries
		all := make([]simnet.IP, len(pool))
		for i, e := range pool {
			all[i] = e.IP
		}
		c.querySample(all)
	case Skip:
		c.scheduleRound(SyncInterval)
	}
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
	return fmt.Sprintf("chronos{pool=%d updates=%d panics=%d}", c.PoolSize(), c.stats.Updates, c.stats.Panics)
}

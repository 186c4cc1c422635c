// Package dnsresolver implements a caching iterative DNS resolver on the
// simulated network.
//
// The resolver is deliberately faithful to the security posture the paper
// analyses:
//
//   - 16-bit transaction IDs are the only off-path defence (source ports
//     are sequential) — there is no DNSSEC, matching the finding that
//     the pool.ntp.org nameservers do not support it;
//   - fragmented responses are reassembled by the host IP stack *before*
//     TXID/port validation, so a planted spoofed fragment bypasses both;
//   - referral glue within the queried zone's bailiwick is cached,
//     including its attacker-controlled TTL;
//   - the resolver is shared: any client that can make it query (a web
//     stub, an SMTP server, the Chronos client itself) triggers cache
//     fills on behalf of every other client.
//
// Acceptance policies (maximum answer-record count, maximum TTL) implement
// the mitigations from §V of the paper and are disabled by default —
// default behaviour is the vulnerable one the paper attacks.
package dnsresolver

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// DNSPort is the well-known DNS UDP port.
const DNSPort = 53

// Resolution errors.
var (
	ErrTimeout    = errors.New("dnsresolver: upstream timeout")
	ErrServFail   = errors.New("dnsresolver: server failure")
	ErrNXDomain   = errors.New("dnsresolver: no such domain")
	ErrNoData     = errors.New("dnsresolver: no records")
	ErrDepthLimit = errors.New("dnsresolver: referral depth exceeded")
)

// AcceptancePolicy is the response-vetting hook. The zero value accepts
// everything (the vulnerable default). The paper's §V mitigations
// instantiate it via the mitigation package.
type AcceptancePolicy struct {
	// MaxAnswerRecords rejects responses carrying more answer records
	// (0 = unlimited). The paper: "not allowing more than 4 addresses in
	// a single DNS reply".
	MaxAnswerRecords int
	// MaxTTL rejects responses carrying any record with a larger TTL
	// (0 = unlimited). The paper: "discarding responses with high TTL
	// values".
	MaxTTL time.Duration
}

// Validate reports a cap the policy cannot apply as written: zero alone
// means unlimited, so a negative cap is refused rather than read as
// unlimited too, and so is a MaxTTL past the 32-bit TTL field, which would
// wrap into a shorter cap. The error names the field; callers add their
// own context.
func (p AcceptancePolicy) Validate() error {
	switch {
	case p.MaxAnswerRecords < 0:
		return fmt.Errorf("negative MaxAnswerRecords %d", p.MaxAnswerRecords)
	case p.MaxTTL < 0:
		return fmt.Errorf("negative MaxTTL %v", p.MaxTTL)
	case p.MaxTTL/time.Second > math.MaxUint32:
		return fmt.Errorf("MaxTTL %v over the 32-bit TTL field", p.MaxTTL)
	}
	return nil
}

// Violates reports whether msg trips the policy.
func (p AcceptancePolicy) Violates(msg *dnswire.Message) bool {
	if p.MaxAnswerRecords > 0 && len(msg.Answers) > p.MaxAnswerRecords {
		return true
	}
	if p.MaxTTL > 0 {
		limit := uint32(p.MaxTTL / time.Second)
		for _, sec := range [][]dnswire.RR{msg.Answers, msg.Authority, msg.Additional} {
			for _, rr := range sec {
				if rr.Type != dnswire.TypeOPT && rr.TTL > limit {
					return true
				}
			}
		}
	}
	return false
}

// Config parameterises a Resolver.
type Config struct {
	EDNSSize uint16           // advertised to upstreams; 0 disables EDNS0
	Timeout  time.Duration    // per-upstream-query timeout; default 2s
	Retries  int              // upstream retries after the first attempt; default 2
	Accept   AcceptancePolicy // §V mitigations; zero = vulnerable
}

// The negative-cache lifetime and the referral-chasing limit.
const (
	negativeTTL = 30 * time.Second
	maxDepth    = 10
)

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	return c
}

// Stats counts resolver activity for experiments.
type Stats struct {
	ClientQueries   uint64
	CacheHits       uint64
	UpstreamQueries uint64
	Timeouts        uint64
	PolicyRejects   uint64
	Failures        uint64
}

// Hint seeds the resolver's knowledge of where a zone's nameserver lives
// (root hints, conceptually).
type Hint struct {
	Zone string
	Addr simnet.Addr
}

// Result is delivered to Lookup callbacks.
type Result struct {
	RRs  []dnswire.RR
	Err  error
	From string // zone of the answering server, for diagnostics
	// Gen names the RRset a Resolver served, or is 0. Two results from one
	// Lookuper with the same nonzero Gen carry the same records in the
	// same order; only their TTLs may differ. A Resolver sets it on a
	// cache hit and on the upstream answer that filled the entry, from
	// its cache's generation counter; every other result, and every
	// result of a Stub or another Lookuper, carries 0.
	Gen uint64
}

// Callback receives the outcome of an internal lookup.
type Callback func(Result)

// Resolver is a caching iterative resolver bound to a simulated host.
type Resolver struct {
	host  *simnet.Host
	cfg   Config
	cache *Cache
	hints []Hint
	stats Stats
	buf   []byte // encode scratch for upstream queries and stub answers; SendUDP copies it

	inflight map[cacheKey]*inflightQuery
}

// inflightQuery tracks one client-visible resolution (possibly several
// upstream round trips deep) with coalesced waiters.
type inflightQuery struct {
	key      cacheKey
	waiters  []Callback
	depth    int
	attempts int

	txid    uint16
	srcPort uint16
	zone    string      // zone of the server currently queried
	server  simnet.Addr // server currently queried
	timer   simnet.Timer
}

// New binds a resolver to host, listening for stub queries on port 53.
func New(host *simnet.Host, cfg Config, hints []Hint) (*Resolver, error) {
	if len(hints) == 0 {
		return nil, errors.New("dnsresolver: at least one hint required")
	}
	r := &Resolver{
		host:     host,
		cfg:      cfg.withDefaults(),
		cache:    NewCache(),
		inflight: make(map[cacheKey]*inflightQuery),
	}
	for _, h := range hints {
		h.Zone = dnswire.NormalizeName(h.Zone)
		r.hints = append(r.hints, h)
	}
	if err := host.Listen(DNSPort, r.handleClient); err != nil {
		return nil, fmt.Errorf("dnsresolver: %w", err)
	}
	return r, nil
}

// Addr returns the resolver's client-facing endpoint.
func (r *Resolver) Addr() simnet.Addr { return simnet.Addr{IP: r.host.IP(), Port: DNSPort} }

// Cache exposes the resolver cache for experiment instrumentation.
func (r *Resolver) Cache() *Cache { return r.cache }

// Stats returns a snapshot of the activity counters.
func (r *Resolver) Stats() Stats { return r.stats }

// Host returns the underlying simulated host (attack code targets its
// reassembly cache).
func (r *Resolver) Host() *simnet.Host { return r.host }

// handleClient serves stub clients over UDP.
func (r *Resolver) handleClient(now time.Time, meta simnet.Meta, payload []byte) {
	query, err := dnswire.DecodeBorrow(payload)
	if err != nil || query.Response || len(query.Questions) != 1 {
		return
	}
	r.stats.ClientQueries++
	q := query.Questions[0]
	from, id := meta.From, query.ID
	r.Lookup(q.Name, q.Type, func(res Result) {
		resp := query.Reply()
		resp.ID = id
		resp.RecursionAvailable = true
		switch {
		case res.Err == nil:
			resp.Answers = res.RRs
		case errors.Is(res.Err, ErrNXDomain):
			resp.RCode = dnswire.RCodeNXDomain
		case errors.Is(res.Err, ErrNoData): // NOERROR with no answers
		default:
			resp.RCode = dnswire.RCodeServFail
		}
		if b, err := resp.AppendEncode(r.buf[:0]); err == nil {
			r.buf = b
			_ = r.host.SendUDP(DNSPort, from, b)
		}
	})
}

// Lookup resolves (name, qtype), invoking cb exactly once — synchronously
// on a cache hit, otherwise after upstream resolution completes or fails.
func (r *Resolver) Lookup(name string, qtype dnswire.Type, cb Callback) {
	key := cacheKey{name: dnswire.NormalizeName(name), qtype: qtype}
	now := r.host.Net().NowUnixNano()
	if rrs, gen, ok := r.cache.get(now, key); ok {
		r.stats.CacheHits++
		cb(Result{RRs: rrs, From: "cache", Gen: gen})
		return
	}
	if err := r.cache.getNegative(now, key); err != nil {
		r.stats.CacheHits++
		cb(Result{Err: err, From: "cache"})
		return
	}
	if q, ok := r.inflight[key]; ok {
		q.waiters = append(q.waiters, cb)
		return
	}
	q := &inflightQuery{key: key, waiters: []Callback{cb}}
	r.inflight[key] = q
	r.step(q)
}

// deepestKnownZone finds the most specific zone containing name for which
// we know a server address, from cached NS+A records and hints. It walks
// the suffixes from most specific to the root ("") by reslicing name, so
// the per-step walk allocates nothing.
func (r *Resolver) deepestKnownZone(now time.Time, name string) (zone string, addr simnet.Addr, ok bool) {
	suffix := name
	for {
		if nsSet, found := r.cache.Get(now, suffix, dnswire.TypeNS); found {
			for _, ns := range nsSet {
				if aSet, found := r.cache.Get(now, ns.Target, dnswire.TypeA); found && len(aSet) > 0 {
					return suffix, simnet.Addr{IP: simnet.IP(aSet[0].A), Port: DNSPort}, true
				}
			}
		}
		for _, h := range r.hints {
			if h.Zone == suffix {
				return suffix, h.Addr, true
			}
		}
		if suffix == "" {
			return "", simnet.Addr{}, false
		}
		if i := strings.IndexByte(suffix, '.'); i >= 0 {
			suffix = suffix[i+1:]
		} else {
			suffix = ""
		}
	}
}

// step issues (or re-issues) the upstream query for q.
func (r *Resolver) step(q *inflightQuery) {
	now := r.host.Net().Now()
	if q.depth >= maxDepth {
		r.finish(q, Result{Err: ErrDepthLimit})
		return
	}
	zone, server, ok := r.deepestKnownZone(now, q.key.name)
	if !ok {
		r.finish(q, Result{Err: ErrServFail})
		return
	}
	q.zone, q.server = zone, server
	q.txid = uint16(r.host.Net().Rand().Intn(1 << 16))
	if q.srcPort != 0 {
		r.host.Close(q.srcPort)
	}
	q.srcPort = r.host.EphemeralPort()
	if err := r.host.Listen(q.srcPort, r.upstreamHandler(q)); err != nil {
		r.finish(q, Result{Err: ErrServFail})
		return
	}
	msg := dnswire.NewQuery(q.txid, q.key.name, q.key.qtype)
	msg.RecursionDesired = false
	if r.cfg.EDNSSize > 0 {
		msg.SetEDNS(r.cfg.EDNSSize)
	}
	b, err := msg.AppendEncode(r.buf[:0])
	if err != nil {
		r.finish(q, Result{Err: ErrServFail})
		return
	}
	r.buf = b
	r.stats.UpstreamQueries++
	_ = r.host.SendUDP(q.srcPort, server, b)
	q.timer = r.host.Net().After(r.cfg.Timeout, func() { r.timeout(q) })
}

// timeout retries or fails an upstream query.
func (r *Resolver) timeout(q *inflightQuery) {
	if _, live := r.inflight[q.key]; !live {
		return
	}
	r.stats.Timeouts++
	q.attempts++
	if q.attempts > r.cfg.Retries {
		r.finish(q, Result{Err: ErrTimeout})
		return
	}
	r.step(q)
}

// upstreamHandler validates and processes a response for q.
func (r *Resolver) upstreamHandler(q *inflightQuery) simnet.Handler {
	return func(now time.Time, meta simnet.Meta, payload []byte) {
		if _, live := r.inflight[q.key]; !live {
			return
		}
		if meta.From != q.server {
			return // wrong source address: off-path noise
		}
		msg, err := dnswire.Decode(payload)
		if err != nil || !msg.Response || msg.ID != q.txid {
			return // TXID mismatch: spoof attempt or stale
		}
		if len(msg.Questions) != 1 ||
			dnswire.NormalizeName(msg.Questions[0].Name) != q.key.name ||
			msg.Questions[0].Type != q.key.qtype {
			return
		}
		if r.cfg.Accept.Violates(msg) {
			r.stats.PolicyRejects++
			return // hardened resolver drops and waits (timeout will retry)
		}
		r.processResponse(q, now, msg)
	}
}

// processResponse consumes a validated upstream response.
func (r *Resolver) processResponse(q *inflightQuery, now time.Time, msg *dnswire.Message) {
	q.timer.Cancel()
	switch msg.RCode {
	case dnswire.RCodeNoError:
	case dnswire.RCodeNXDomain:
		r.cache.PutNegative(now, q.key.name, q.key.qtype, ErrNXDomain, negativeTTL)
		r.finish(q, Result{Err: ErrNXDomain, From: q.zone})
		return
	default:
		r.finish(q, Result{Err: ErrServFail, From: q.zone})
		return
	}

	// Direct answers for the question, within bailiwick.
	var answers []dnswire.RR
	for _, rr := range msg.Answers {
		if dnswire.NormalizeName(rr.Name) == q.key.name && rr.Type == q.key.qtype &&
			dnswire.InZone(rr.Name, q.zone) {
			answers = append(answers, rr)
		}
	}
	if len(answers) > 0 {
		gen := r.cache.put(now.UnixNano(), q.key, answers)
		r.finish(q, Result{RRs: answers, From: q.zone, Gen: gen})
		return
	}

	// Referral: authority NS records for a deeper zone, with glue.
	// Bailiwick: both the delegated zone and any glue must sit inside the
	// answering server's zone — but the *glue TTL and address* are taken
	// verbatim, which is what defragmentation poisoning abuses.
	progressed := false
	for _, ns := range msg.Authority {
		if ns.Type != dnswire.TypeNS {
			continue
		}
		delegated := dnswire.NormalizeName(ns.Name)
		if !dnswire.InZone(q.key.name, delegated) || !dnswire.InZone(delegated, q.zone) {
			continue
		}
		if delegated == q.zone {
			continue // no progress; avoid loops
		}
		r.cache.Put(now, delegated, dnswire.TypeNS, []dnswire.RR{ns})
		for _, glue := range msg.Additional {
			if glue.Type == dnswire.TypeA &&
				dnswire.NormalizeName(glue.Name) == dnswire.NormalizeName(ns.Target) &&
				dnswire.InZone(glue.Name, q.zone) {
				r.cache.Put(now, glue.Name, dnswire.TypeA, []dnswire.RR{glue})
			}
		}
		progressed = true
	}
	if progressed {
		q.depth++
		r.step(q)
		return
	}

	if msg.Authoritative {
		// Authoritative empty answer: NODATA.
		r.cache.PutNegative(now, q.key.name, q.key.qtype, ErrNoData, negativeTTL)
		r.finish(q, Result{Err: ErrNoData, From: q.zone})
		return
	}
	r.finish(q, Result{Err: ErrServFail, From: q.zone})
}

// finish delivers the result to all waiters and releases resources.
func (r *Resolver) finish(q *inflightQuery, res Result) {
	q.timer.Cancel()
	if q.srcPort != 0 {
		r.host.Close(q.srcPort)
		q.srcPort = 0
	}
	delete(r.inflight, q.key)
	if res.Err != nil {
		r.stats.Failures++
	}
	for _, cb := range q.waiters {
		cb(res)
	}
}

// Package ntpclient implements a classic RFC 5905 NTP client — the
// baseline the paper compares Chronos against ("traditional NTP which
// queries few (typically up to 4) NTP servers").
//
// The pipeline follows the reference architecture:
//
//	poll → clock filter (8-stage, minimum-delay sample)
//	     → selection (the intersection algorithm: find the largest clique
//	       of correctness intervals, discarding "falsetickers")
//	     → clustering (discard outliers by selection jitter)
//	     → combining (weighted average)
//	     → discipline (slew below the 128 ms step threshold, step above
//	       it, reject beyond the 1000 s panic threshold)
//
// Two behaviours matter for the paper's contrast with Chronos:
//
//   - the server list is resolved over DNS once at startup, so a DNS
//     attacker gets exactly one poisoning opportunity, and
//   - at most DefaultMaxServers (4) servers are used, so a successful poisoning
//     controls the entire server set but never more than 4 addresses.
//
// Exchange is the one simulated NTP exchange: a request from an
// ephemeral port, the shared ntpauth.ClientAuth.CheckReply on every
// reply, and a deadline. The classic client polls each association
// through it, and chronos.Client.Query is Exchange behind Chronos's
// per-server policy, so the two clients differ only in how they build
// their server set and select from it.
package ntpclient

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// ErrNoServers is reported when startup resolves no servers.
var ErrNoServers = errors.New("ntpclient: no servers resolved")

// PoolName is the pool domain both NTP clients resolve: the classic
// client once at startup, Chronos once per pool-generation query.
const PoolName = "pool.ntp.org"

// DefaultMaxServers is the classic client's cap on associations: Start
// keeps the first this many addresses its lookup resolves.
const DefaultMaxServers = 4

// pollInterval is the classic client's poll period, ntpd's minimum poll
// of 2^6 s.
const pollInterval = 64 * time.Second

// The discipline's thresholds: combined offsets up to stepThreshold are
// slewed, larger ones stepped, and those beyond panicThreshold
// discarded.
const (
	stepThreshold  = 128 * time.Millisecond
	panicThreshold = 1000 * time.Second
)

// replyWait is how long a poll waits for replies before selection runs;
// it is also each exchange's deadline.
const replyWait = time.Second

// Stats counts client activity.
type Stats struct {
	Polls        uint64
	Responses    uint64
	Syncs        uint64
	Steps        uint64
	Slews        uint64
	PanicRejects uint64
	NoConsensus  uint64
	Replies
}

// Replies counts the replies an Exchange refuses. chronos.Stats embeds
// it too, so both clients report them under the same names.
type Replies struct {
	KoDKisses   uint64 // Kiss-o'-Death replies received (believed or not)
	AuthRejects uint64 // replies dropped by the authentication policy
	Demobilized uint64 // servers demobilized by believed DENY/RSTR kisses
}

// filterSample is one clock-filter stage.
type filterSample struct {
	offset time.Duration
	delay  time.Duration
}

// association tracks one server peer.
type association struct {
	addr   simnet.Addr
	filter []filterSample // most recent last, max 8
	reach  uint8

	kod       ntpauth.AssocState // DENY/RSTR demobilization, RATE strikes
	skipPolls int                // polls to sit out after a believed RATE kiss
}

// candidate is the clock-filtered view of one association handed to the
// selection algorithm.
type candidate struct {
	offset time.Duration
	rdist  time.Duration // root distance λ = delay/2 + dispersion floor
}

// Client is a classic NTP client bound to a simulated host.
type Client struct {
	host    *simnet.Host
	clk     *clock.Clock
	stub    dnsresolver.Lookuper
	assocs  []*association
	stats   Stats
	started bool
	stopped bool
	timer   simnet.Timer

	// Poll-loop method values bound once so the steady state schedules
	// timers without allocating closures.
	pollFn    func()
	processFn func()
	wireBuf   []byte // request encode scratch, reused across exchanges
}

// New builds a client that resolves PoolName through stub, the UDP
// *dnsresolver.Stub of the single-client scenarios. It polls
// unauthenticated, and Kiss-o'-Death replies drive each association's
// ntpauth.AssocState: any origin-valid kiss is believed, demobilizing
// on DENY/RSTR and backing off on RATE.
func New(host *simnet.Host, clk *clock.Clock, stub dnsresolver.Lookuper) *Client {
	c := &Client{host: host, clk: clk, stub: stub}
	c.pollFn = c.poll
	c.processFn = c.process
	return c
}

// Servers returns the addresses of the active associations.
func (c *Client) Servers() []simnet.Addr {
	servers := make([]simnet.Addr, 0, len(c.assocs))
	for _, a := range c.assocs {
		servers = append(servers, a.addr)
	}
	return servers
}

// Start resolves the server list (once — the classic behaviour) and begins
// the poll loop. The callback, if non-nil, fires after startup completes
// or fails.
func (c *Client) Start(done func(err error)) {
	if c.started {
		if done != nil {
			done(errors.New("ntpclient: already started"))
		}
		return
	}
	c.started = true
	finish := func(ips []simnet.IP, err error) {
		if err == nil && len(ips) == 0 {
			err = ErrNoServers
		}
		if err != nil {
			if done != nil {
				done(err)
			}
			return
		}
		if len(ips) > DefaultMaxServers {
			ips = ips[:DefaultMaxServers]
		}
		backing := make([]association, len(ips))
		c.assocs = make([]*association, len(ips))
		for i, ip := range ips {
			backing[i].addr = simnet.Addr{IP: ip, Port: ntpwire.Port}
			c.assocs[i] = &backing[i]
		}
		c.schedulePoll(0)
		if done != nil {
			done(nil)
		}
	}
	dnsresolver.LookupA(c.stub, PoolName, finish)
}

// Stop halts the poll loop. An exchange in flight still ends at its
// reply or deadline.
func (c *Client) Stop() {
	c.stopped = true
	c.timer.Cancel()
}

func (c *Client) schedulePoll(d time.Duration) {
	if c.stopped {
		return
	}
	c.timer = c.host.Net().After(d, c.pollFn)
}

// poll sends one request to every association, then processes responses
// replyWait later.
func (c *Client) poll() {
	if c.stopped {
		return
	}
	net := c.host.Net()
	for _, a := range c.assocs {
		c.sendRequest(a)
	}
	c.stats.Polls++
	net.After(replyWait, c.processFn)
	c.schedulePoll(pollInterval)
}

// sendRequest polls one association through Exchange and files its
// sample in the clock filter.
func (c *Client) sendRequest(a *association) {
	if !a.kod.Usable() {
		return // demobilized by a DENY/RSTR kiss
	}
	if a.skipPolls > 0 {
		a.skipPolls--
		return // RATE back-off: sit this poll out
	}
	a.reach <<= 1
	strikes := a.kod.RateStrikes
	Exchange(c.host, c.clk, a.addr, nil, &a.kod, replyWait, &c.wireBuf, &c.stats.Replies, func(off, delay time.Duration, ok bool) {
		if !ok {
			if a.kod.RateStrikes > strikes {
				a.skipPolls += 2 // a believed RATE kiss: quadruple the effective poll interval once
			}
			return
		}
		a.reach |= 1
		c.stats.Responses++
		a.filter = append(a.filter, filterSample{offset: off, delay: delay})
		if len(a.filter) > 8 {
			a.filter = a.filter[len(a.filter)-8:]
		}
	})
}

// Exchange performs one NTP exchange with to from an ephemeral port of
// host and calls cb exactly once: with the offset and round-trip delay
// measured against clk when a reply from to passes auth.CheckReply
// (auth may be nil), or with ok false on a kiss, when timeout of virtual
// time passes first, or when no port is free. The request is encoded
// in *buf, scratch the caller keeps across exchanges because SendUDP
// copies it. Kisses fold into kod; a nil kod ignores them, and they
// then fail the reply check like any unusable reply. n counts refused
// replies, kisses and the demobilizations they cause.
func Exchange(host *simnet.Host, clk *clock.Clock, to simnet.Addr, auth *ntpauth.ClientAuth, kod *ntpauth.AssocState,
	timeout time.Duration, buf *[]byte, n *Replies, cb func(off, delay time.Duration, ok bool)) {
	port := host.EphemeralPort()
	if port == 0 {
		cb(0, 0, false)
		return
	}
	net := host.Net()
	t1 := clk.Now(net.Now())
	answered := false
	var deadline simnet.Timer
	err := host.Listen(port, func(now time.Time, meta simnet.Meta, payload []byte) {
		if answered || meta.From != to {
			return
		}
		wasUsable := kod != nil && kod.Usable()
		var resp ntpwire.Packet
		reply := auth.CheckReply(&resp, payload, ntpwire.TimestampFromTime(t1), kod)
		switch reply {
		case ntpauth.ReplyDrop:
			return
		case ntpauth.ReplyReject:
			n.AuthRejects++
			return
		case ntpauth.ReplyKiss:
			n.KoDKisses++
			if wasUsable && !kod.Usable() {
				n.Demobilized++
			}
		}
		answered = true
		host.Close(port)
		// Cancel the pending timeout so answered exchanges leave no dead
		// event behind — at long horizons these no-op wakeups dominate
		// the event queue.
		deadline.Cancel()
		if reply == ntpauth.ReplyKiss {
			cb(0, 0, false)
			return
		}
		off, delay := ntpwire.OffsetDelay(t1, resp.ReceiveTime.TimeNear(t1), resp.TransmitTime.TimeNear(t1), clk.Now(now))
		cb(off, delay, true)
	})
	if err != nil {
		cb(0, 0, false)
		return
	}
	var req ntpwire.Packet
	ntpwire.FillClientPacket(&req, t1)
	*buf = auth.SealRequest(req.AppendEncode((*buf)[:0]))
	_ = host.SendUDP(port, to, *buf) // a failed send ends at the deadline, like a lost one
	deadline = net.After(timeout, func() {
		if !answered {
			host.Close(port)
			cb(0, 0, false)
		}
	})
}

// clockFilter returns the minimum-delay sample of the association's filter
// (the RFC 5905 clock-filter output).
func (a *association) clockFilter() (filterSample, bool) {
	if len(a.filter) == 0 {
		return filterSample{}, false
	}
	best := a.filter[0]
	for _, s := range a.filter[1:] {
		if s.delay < best.delay {
			best = s
		}
	}
	return best, true
}

// process runs selection → cluster → combine → discipline.
func (c *Client) process() {
	if c.stopped {
		return
	}
	var cands []candidate
	for _, a := range c.assocs {
		if a.reach == 0 {
			continue
		}
		s, ok := a.clockFilter()
		if !ok {
			continue
		}
		rdist := s.delay/2 + 10*time.Millisecond // dispersion floor
		cands = append(cands, candidate{offset: s.offset, rdist: rdist})
	}
	if len(cands) == 0 {
		c.stats.NoConsensus++
		return
	}
	survivors := intersect(cands)
	if len(survivors) == 0 {
		c.stats.NoConsensus++
		return
	}
	offset := combine(cluster(survivors, 3))
	c.apply(offset)
}

// apply disciplines the local clock with the combined offset.
func (c *Client) apply(offset time.Duration) {
	abs := offset
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs > panicThreshold:
		c.stats.PanicRejects++
		return
	case abs > stepThreshold:
		c.stats.Steps++
	default:
		c.stats.Slews++
	}
	now := c.host.Net().Now()
	c.clk.Step(now, offset)
	c.stats.Syncs++
}

// intersect implements the RFC 5905 §11.2.1 selection ("intersection")
// algorithm: find the largest group of candidates whose correctness
// intervals [θ−λ, θ+λ] share a point, tolerating up to f < n/2
// falsetickers. It returns the candidates whose intervals contain the
// computed intersection.
func intersect(cands []candidate) []candidate {
	n := len(cands)
	type edge struct {
		value time.Duration
		typ   int // -1 = lower endpoint, +1 = upper endpoint
	}
	edges := make([]edge, 0, 2*n)
	for _, cd := range cands {
		edges = append(edges,
			edge{cd.offset - cd.rdist, -1},
			edge{cd.offset + cd.rdist, +1},
		)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].value != edges[j].value {
			return edges[i].value < edges[j].value
		}
		return edges[i].typ < edges[j].typ
	})

	var low, high time.Duration
	found := false
	for allow := 0; 2*allow < n; allow++ {
		// Scan upward for the low endpoint.
		chime := 0
		gotLow := false
		var lo time.Duration
		for _, e := range edges {
			switch e.typ {
			case -1:
				chime++
			case +1:
				chime--
			}
			if chime >= n-allow {
				lo = e.value
				gotLow = true
				break
			}
		}
		// Scan downward for the high endpoint.
		chime = 0
		gotHigh := false
		var hi time.Duration
		for i := len(edges) - 1; i >= 0; i-- {
			switch edges[i].typ {
			case +1:
				chime++
			case -1:
				chime--
			}
			if chime >= n-allow {
				hi = edges[i].value
				gotHigh = true
				break
			}
		}
		if gotLow && gotHigh && lo <= hi {
			low, high, found = lo, hi, true
			break
		}
	}
	if !found {
		return nil
	}
	var out []candidate
	for _, cd := range cands {
		if cd.offset-cd.rdist <= high && cd.offset+cd.rdist >= low {
			out = append(out, cd)
		}
	}
	return out
}

// cluster implements the RFC 5905 §11.2.2 clustering algorithm: repeatedly
// discard the survivor with the largest selection jitter until at most
// keep remain or jitter no longer improves.
func cluster(survivors []candidate, keep int) []candidate {
	out := append([]candidate(nil), survivors...)
	for len(out) > keep {
		// Selection jitter of j: RMS of offset differences to the others.
		worst, worstJitter := -1, -1.0
		minRdist := math.MaxFloat64
		for j := range out {
			var sum float64
			for i := range out {
				if i == j {
					continue
				}
				d := float64(out[j].offset - out[i].offset)
				sum += d * d
			}
			jitter := math.Sqrt(sum / float64(len(out)-1))
			if jitter > worstJitter {
				worst, worstJitter = j, jitter
			}
			if rd := float64(out[j].rdist); rd < minRdist {
				minRdist = rd
			}
		}
		// Stop when the worst jitter is already below the best accuracy:
		// discarding more cannot improve the estimate.
		if worstJitter <= minRdist {
			break
		}
		out = append(out[:worst], out[worst+1:]...)
	}
	return out
}

// combine implements the RFC 5905 §11.2.3 combine algorithm: a weighted
// average of survivor offsets with weights 1/λ.
func combine(survivors []candidate) time.Duration {
	var num, den float64
	for _, s := range survivors {
		w := 1.0 / math.Max(float64(s.rdist), float64(time.Microsecond))
		num += w * float64(s.offset)
		den += w
	}
	if den == 0 {
		return 0
	}
	return time.Duration(num / den)
}

// Offset reports the client clock's current error against true time — the
// measurement every experiment records. (Test/experiment instrumentation;
// a real client cannot observe this.)
func (c *Client) Offset() time.Duration {
	return c.clk.Offset(c.host.Net().Now())
}

// String implements fmt.Stringer.
func (c *Client) String() string {
	return fmt.Sprintf("ntpclient{servers=%d syncs=%d}", len(c.assocs), c.stats.Syncs)
}

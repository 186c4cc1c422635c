// Package dnsserver implements an authoritative DNS server for the
// simulated network, including a pool.ntp.org-style rotating zone: each A
// query is answered with a small rotating subset (4 by default) of a large
// NTP-server inventory, with a short TTL — exactly the behaviour Chronos'
// pool-generation mechanism relies on to accumulate ~96 distinct servers
// over 24 hourly queries.
//
// The nameservers for pool.ntp.org studied by the paper's companion
// measurement work do not deploy DNSSEC and fragment large responses at
// path MTUs down to 548 bytes; both properties are modelled here (absence
// of DNSSEC by construction, fragmentation by the simulator's path MTU).
package dnsserver

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// DNSPort is the well-known DNS UDP port.
const DNSPort = 53

// ErrZoneExists is returned when registering a duplicate zone.
var ErrZoneExists = errors.New("dnsserver: zone already registered")

// Responder produces the sections of an authoritative answer for one
// question inside a zone.
type Responder interface {
	// Respond returns answers, authority and additional records plus an
	// RCode for the question. rng is the simulation's seeded source.
	Respond(now time.Time, q dnswire.Question, rng *rand.Rand) Answer
}

// Answer is an authoritative response body.
type Answer struct {
	RCode      dnswire.RCode
	Answers    []dnswire.RR
	Authority  []dnswire.RR
	Additional []dnswire.RR
}

// Authoritative is a DNS server bound to a simulated host. It serves any
// number of zones, each backed by a Responder.
type Authoritative struct {
	host    *simnet.Host
	zones   map[string]Responder
	queries uint64
	buf     []byte // response encode scratch; SendUDP copies it
}

// New binds an authoritative server to port 53 of host.
func New(host *simnet.Host) (*Authoritative, error) {
	a := &Authoritative{host: host, zones: make(map[string]Responder)}
	if err := host.Listen(DNSPort, a.handle); err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	return a, nil
}

// Addr returns the server's DNS endpoint.
func (a *Authoritative) Addr() simnet.Addr {
	return simnet.Addr{IP: a.host.IP(), Port: DNSPort}
}

// Queries reports the number of queries handled.
func (a *Authoritative) Queries() uint64 { return a.queries }

// AddZone registers responder as authoritative for zone (canonical name).
func (a *Authoritative) AddZone(zone string, responder Responder) error {
	zone = dnswire.NormalizeName(zone)
	if _, ok := a.zones[zone]; ok {
		return fmt.Errorf("%w: %q", ErrZoneExists, zone)
	}
	a.zones[zone] = responder
	return nil
}

// findZone returns the most specific registered zone containing name.
func (a *Authoritative) findZone(name string) (string, Responder, bool) {
	best := ""
	var bestR Responder
	found := false
	for zone, r := range a.zones {
		if dnswire.InZone(name, zone) && (!found || len(zone) > len(best)) {
			best, bestR, found = zone, r, true
		}
	}
	return best, bestR, found
}

// handle is the UDP handler for port 53.
func (a *Authoritative) handle(now time.Time, meta simnet.Meta, payload []byte) {
	query, err := dnswire.Decode(payload)
	if err != nil || query.Response || len(query.Questions) != 1 {
		return // garbage in, silence out
	}
	a.queries++
	q := query.Questions[0]
	resp := query.Reply()
	resp.Authoritative = true

	maxPayload := query.MaxPayload()
	if sz, ok := query.EDNSSize(); ok {
		resp.SetEDNS(sz)
	}

	if query.Opcode != 0 {
		resp.RCode = dnswire.RCodeNotImp
		a.send(meta, resp, maxPayload)
		return
	}
	_, responder, ok := a.findZone(q.Name)
	if !ok {
		resp.RCode = dnswire.RCodeRefused
		a.send(meta, resp, maxPayload)
		return
	}
	ans := responder.Respond(now, q, a.host.Net().Rand())
	resp.RCode = ans.RCode
	resp.Answers = ans.Answers
	resp.Authority = ans.Authority
	resp.Additional = append(ans.Additional, resp.Additional...)
	a.send(meta, resp, maxPayload)
}

// send encodes resp into the server's scratch buffer, truncated if it
// exceeds what the client can accept, and sends it. A response that fits
// is encoded once.
func (a *Authoritative) send(meta simnet.Meta, resp *dnswire.Message, maxPayload int) {
	b, err := resp.AppendEncode(a.buf[:0])
	if err == nil && len(b) > maxPayload {
		resp.Truncated = true
		resp.Answers = nil
		resp.Authority = nil
		b, err = resp.AppendEncode(b[:0])
	}
	if err != nil {
		return
	}
	a.buf = b
	// Reply from port 53 to the querier's source endpoint. Send errors
	// are dropped packets — UDP semantics.
	_ = a.host.SendUDP(DNSPort, meta.From, b)
}

// StaticZone is a Responder backed by a fixed record set.
type StaticZone struct {
	zone    string
	records map[recordKey][]dnswire.RR
}

type recordKey struct {
	name  string
	qtype dnswire.Type
}

// NewStaticZone builds an empty static zone.
func NewStaticZone(zone string) *StaticZone {
	return &StaticZone{zone: dnswire.NormalizeName(zone), records: make(map[recordKey][]dnswire.RR)}
}

// Add appends rr to the zone.
func (z *StaticZone) Add(rr dnswire.RR) {
	k := recordKey{name: dnswire.NormalizeName(rr.Name), qtype: rr.Type}
	z.records[k] = append(z.records[k], rr)
}

var _ Responder = (*StaticZone)(nil)

// Respond implements Responder.
func (z *StaticZone) Respond(now time.Time, q dnswire.Question, rng *rand.Rand) Answer {
	rrs, ok := z.records[recordKey{name: dnswire.NormalizeName(q.Name), qtype: q.Type}]
	if !ok {
		// Name exists with another type → NOERROR/empty; else NXDOMAIN.
		for k := range z.records {
			if k.name == dnswire.NormalizeName(q.Name) {
				return Answer{}
			}
		}
		return Answer{RCode: dnswire.RCodeNXDomain}
	}
	return Answer{Answers: append([]dnswire.RR(nil), rrs...)}
}

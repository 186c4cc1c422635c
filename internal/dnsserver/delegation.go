package dnsserver

import (
	"math/rand"
	"sort"
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// Delegation describes a child zone cut: NS records plus glue addresses.
type Delegation struct {
	Child string   // delegated zone, e.g. "ntp.org"
	NSTTL uint32   // TTL of the NS records
	Glue  []NSGlue // nameservers with their addresses
}

// NSGlue pairs a nameserver name with its glue address and TTL.
type NSGlue struct {
	Name string
	IP   simnet.IP
	TTL  uint32
}

// DelegatingZone serves referrals for its child zone cuts, the behaviour
// a parent (root/TLD) server exhibits, and NXDOMAIN for every other
// name. Referral responses — authority NS plus additional glue — are the
// payload the defragmentation-poisoning attack rewrites: spoofed glue
// redirects a victim resolver to an attacker-controlled "nameserver".
type DelegatingZone struct {
	zone        string
	delegations map[string]Delegation
}

var _ Responder = (*DelegatingZone)(nil)

// NewDelegatingZone builds an empty delegating zone.
func NewDelegatingZone(zone string) *DelegatingZone {
	zone = dnswire.NormalizeName(zone)
	return &DelegatingZone{zone: zone, delegations: make(map[string]Delegation)}
}

// Delegate registers a child zone cut. Referrals list its glue sorted by
// name, which keeps responses byte-predictable inside a rotation window
// (the attack probes for exact bytes).
func (z *DelegatingZone) Delegate(d Delegation) {
	d.Child = dnswire.NormalizeName(d.Child)
	d.Glue = append([]NSGlue(nil), d.Glue...)
	sort.Slice(d.Glue, func(i, j int) bool { return d.Glue[i].Name < d.Glue[j].Name })
	z.delegations[d.Child] = d
}

// Respond implements Responder: a referral for a name under a delegated
// child, NXDOMAIN otherwise.
func (z *DelegatingZone) Respond(now time.Time, q dnswire.Question, rng *rand.Rand) Answer {
	name := dnswire.NormalizeName(q.Name)
	// Most specific delegation containing the name wins.
	var best string
	found := false
	for child := range z.delegations {
		if dnswire.InZone(name, child) && child != z.zone && (!found || len(child) > len(best)) {
			best, found = child, true
		}
	}
	if found {
		d := z.delegations[best]
		ans := Answer{}
		for _, g := range d.Glue {
			ans.Authority = append(ans.Authority, dnswire.NSRecord(d.Child, d.NSTTL, g.Name))
			ans.Additional = append(ans.Additional, dnswire.ARecord(g.Name, g.TTL, [4]byte(g.IP)))
		}
		return ans
	}
	return Answer{RCode: dnswire.RCodeNXDomain}
}

package dnsresolver

import (
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// Lookuper is the DNS dependency of the simulated clients. Three
// implementations:
//
//   - *Stub: the wire path — one UDP query/response exchange with the
//     resolver per lookup, exactly what a real stub resolver does;
//   - *Resolver: the direct in-process handle — the lookup enters the
//     resolver's cache/iteration machinery without the client↔resolver
//     UDP round trip. Fleet-scale experiments use it so thousands of
//     clients can share one resolver cache at O(1) cost per cached
//     lookup while the resolver's *upstream* traffic (the attack
//     surface) stays on the simulated wire;
//   - *ConsensusStub: majority voting over several Stubs, the
//     consensus defence.
//
// Result.Gen is a Lookuper's promise about repeated answers: two results
// from one Lookuper with the same nonzero Gen carry the same records in
// the same order, and only their TTLs may differ. A caller may reuse what
// it derived from the first such answer instead of re-reading the
// records. Of this package's Lookupers only *Resolver sets it; one that
// cannot keep the promise leaves Gen 0, which promises nothing.
type Lookuper interface {
	Lookup(name string, qtype dnswire.Type, cb Callback)
}

var (
	_ Lookuper = (*Stub)(nil)
	_ Lookuper = (*Resolver)(nil)
	_ Lookuper = (*ConsensusStub)(nil)
)

// LookupA resolves name to IPv4 addresses through any Lookuper — the
// convenience NTP clients use for bootstrap.
func LookupA(l Lookuper, name string, cb func(ips []simnet.IP, err error)) {
	l.Lookup(name, dnswire.TypeA, func(res Result) {
		if res.Err != nil {
			cb(nil, res.Err)
			return
		}
		var ips []simnet.IP
		for _, rr := range res.RRs {
			if rr.Type == dnswire.TypeA {
				ips = append(ips, simnet.IP(rr.A))
			}
		}
		cb(ips, nil)
	})
}

// Package mitigation implements the countermeasures §V of the paper
// proposes, plus the direction it recommends for a real fix:
//
//   - PaperResolverPolicy / PaperClientPolicy: "not allowing more than 4
//     addresses in a single DNS reply and discarding responses with high
//     TTL values", applicable at the resolver and at the Chronos client;
//   - ConsensusStub: pool generation through multiple independent
//     resolvers with majority voting — the distributed-consensus
//     direction of reference [12] ("Secure Consensus Generation with
//     Distributed DoH"). A single poisoned resolver can then contribute
//     at most its minority share and cannot pin the pool.
//
// The paper is explicit that the §V tweaks only *limit* the attack: an
// adversary who hijacks the victim's DNS for the whole 24-hour pool
// generation window (e.g. via BGP) still controls the pool. The
// experiments reproduce that residual weakness.
//
// Policies are pure response filters (addresses in, addresses out) so
// the same implementation applies at three attachment points: the
// caching resolver (dnsresolver), the Chronos client's pool generation
// (core scenarios via the mitigation toggles), and the E10 shift grid,
// where the client-side address cap re-derives the post-mitigation pool
// composition before the engine runs. E7 tables each defence's
// resulting pool; the mitigation axis of -sweep and the fleet study's
// "§V caps" rows measure the same policies at grid and population
// scale. The quantitative upshot the experiments pin: caps restore an
// honest majority against cache poisoning (malicious count → 0) but
// leave the persistent-hijack row at attacker fraction 1.0.
package mitigation

import (
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
)

// PaperMaxAddrs is the per-response address cap from §V (the benign
// pool.ntp.org count).
const PaperMaxAddrs = 4

// PaperMaxTTL is the TTL cap from §V: anything reaching past the next
// pool-generation query is suspicious; 24 h is the generation horizon.
const PaperMaxTTL = 24 * time.Hour

// PaperResolverPolicy returns the §V acceptance policy for a resolver.
func PaperResolverPolicy() dnsresolver.AcceptancePolicy {
	return dnsresolver.AcceptancePolicy{
		MaxAnswerRecords: PaperMaxAddrs,
		MaxTTL:           PaperMaxTTL,
	}
}

// PaperClientPolicy returns the §V vetting policy for the Chronos client's
// own pool generation.
func PaperClientPolicy() chronos.PoolPolicy {
	return chronos.PoolPolicy{
		MaxAddrsPerResponse: PaperMaxAddrs,
		MaxTTL:              PaperMaxTTL,
	}
}

// ConsensusStub resolves names through several independent resolvers and
// reports only the A records a strict majority agrees on: at least
// len(stubs)/2+1 of them. It satisfies chronos.Lookuper, so a Chronos
// client can swap it in for a single stub.
type ConsensusStub struct {
	stubs  []*dnsresolver.Stub
	quorum int // len(stubs)/2 + 1

	// Lookups counts consensus lookups performed.
	Lookups uint64
	// Suppressed counts records seen from some resolver but rejected for
	// lack of quorum.
	Suppressed uint64
}

var _ chronos.Lookuper = (*ConsensusStub)(nil)

// NewConsensusStub builds a consensus stub over the given per-resolver
// stubs.
func NewConsensusStub(stubs []*dnsresolver.Stub) *ConsensusStub {
	return &ConsensusStub{stubs: stubs, quorum: len(stubs)/2 + 1}
}

// Lookup implements chronos.Lookuper: fan out, tally per-address votes,
// and deliver the quorum survivors once every resolver answered (or
// failed), in the order their first votes arrived, so the pool a client
// builds from them is the same on every run. TTLs are floored across
// voters so a single resolver cannot pin the result with an inflated TTL.
func (c *ConsensusStub) Lookup(name string, qtype dnswire.Type, cb dnsresolver.Callback) {
	c.Lookups++
	total := len(c.stubs)
	if total == 0 {
		cb(dnsresolver.Result{Err: dnsresolver.ErrServFail, From: "consensus"})
		return
	}
	type vote struct {
		count  int
		minTTL uint32
		rr     dnswire.RR
	}
	var votes []vote            // in the order each address was first voted for
	at := make(map[[4]byte]int) // position of an address's vote in votes
	pending := total
	var firstErr error

	finish := func() {
		var out []dnswire.RR
		for _, v := range votes {
			if v.count >= c.quorum {
				rr := v.rr
				rr.TTL = v.minTTL
				out = append(out, rr)
			} else {
				c.Suppressed++
			}
		}
		if len(out) == 0 {
			err := firstErr
			if err == nil {
				err = dnsresolver.ErrNoData
			}
			cb(dnsresolver.Result{Err: err, From: "consensus"})
			return
		}
		cb(dnsresolver.Result{RRs: out, From: "consensus"})
	}

	for _, stub := range c.stubs {
		stub.Lookup(name, qtype, func(res dnsresolver.Result) {
			if res.Err != nil {
				if firstErr == nil {
					firstErr = res.Err
				}
			} else {
				seen := make(map[[4]byte]bool)
				for _, rr := range res.RRs {
					if rr.Type != dnswire.TypeA || seen[rr.A] {
						continue
					}
					seen[rr.A] = true
					i, ok := at[rr.A]
					if !ok {
						at[rr.A] = len(votes)
						votes = append(votes, vote{count: 1, minTTL: rr.TTL, rr: rr})
						continue
					}
					v := &votes[i]
					v.count++
					if rr.TTL < v.minTTL {
						v.minTTL = rr.TTL
					}
				}
			}
			if pending--; pending == 0 {
				finish()
			}
		})
	}
}

package dnsresolver

import "chronosntp/internal/dnswire"

// ConsensusStub resolves names through several independent resolvers and
// reports only the A records a strict majority agrees on: at least
// len(stubs)/2+1 of them. It is pool generation by distributed consensus,
// the direction of the paper's reference [12] ("Secure Consensus
// Generation with Distributed DoH"): a single poisoned resolver can then
// contribute at most its minority share and cannot pin the pool. An
// attacker who holds a majority of the resolvers, or hijacks the DNS path
// itself, still wins.
type ConsensusStub struct {
	stubs  []*Stub
	quorum int // len(stubs)/2 + 1

	// Suppressed counts records seen from some resolver but rejected for
	// lack of quorum.
	Suppressed uint64
}

// NewConsensusStub builds a consensus stub over the given per-resolver
// stubs.
func NewConsensusStub(stubs []*Stub) *ConsensusStub {
	return &ConsensusStub{stubs: stubs, quorum: len(stubs)/2 + 1}
}

// Lookup implements Lookuper: fan out, tally per-address votes, and
// deliver the quorum survivors once every resolver answered (or failed),
// in the order their first votes arrived, so the pool a client builds
// from them is the same on every run. TTLs are floored across voters so a
// single resolver cannot pin the result with an inflated TTL.
func (c *ConsensusStub) Lookup(name string, qtype dnswire.Type, cb Callback) {
	total := len(c.stubs)
	if total == 0 {
		cb(Result{Err: ErrServFail, From: "consensus"})
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
				err = ErrNoData
			}
			cb(Result{Err: err, From: "consensus"})
			return
		}
		cb(Result{RRs: out, From: "consensus"})
	}

	for _, stub := range c.stubs {
		stub.Lookup(name, qtype, func(res Result) {
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

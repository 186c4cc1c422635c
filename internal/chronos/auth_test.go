package chronos

import (
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// TestQuorumEvaluate pins the chrony-style minsources acceptance test:
// the largest cluster agreeing within 2ω wins iff it reaches MinSources,
// with no trim and no absolute error bound — including the case C1/C2
// would refuse but the quorum accepts, which is the E11 contrast.
func TestQuorumEvaluate(t *testing.T) {
	ms := time.Millisecond
	quorum := NewRule(Config{MinSources: 3})
	classic := NewRule(Config{SampleSize: 4})

	t.Run("cluster-accepted-outlier-ignored", func(t *testing.T) {
		v := quorum.Evaluate([]time.Duration{0, 1 * ms, 2 * ms, 300 * ms})
		if !v.OK || v.Reason != FailNone {
			t.Fatalf("verdict = %+v, want OK", v)
		}
		if v.Update != ms {
			t.Errorf("update = %v, want cluster mean 1ms", v.Update)
		}
	})
	t.Run("no-cluster-fails-quorum", func(t *testing.T) {
		v := quorum.Evaluate([]time.Duration{0, 100 * ms, 200 * ms})
		if v.OK || v.Reason != FailQuorum {
			t.Fatalf("verdict = %+v, want FailQuorum", v)
		}
	})
	t.Run("starved-below-minsources", func(t *testing.T) {
		v := quorum.Evaluate([]time.Duration{0, ms})
		if v.OK || v.Reason != FailInsufficient {
			t.Fatalf("verdict = %+v, want FailInsufficient", v)
		}
	})
	t.Run("agreeing-attacker-beats-quorum-but-not-errbound", func(t *testing.T) {
		// Three colluding sources at ~500ms outvote one honest sample:
		// the quorum applies the attacker's offset where C2's absolute
		// bound would have refused it. This asymmetry is what E11's
		// minsources-vs-C1C2 axis measures.
		offsets := []time.Duration{500 * ms, 501 * ms, 502 * ms, 0}
		if v := quorum.Evaluate(offsets); !v.OK || v.Update != 501*ms {
			t.Fatalf("quorum verdict = %+v, want OK at 501ms", v)
		}
		if v := classic.Evaluate(offsets); v.OK {
			t.Fatalf("classic C1/C2 accepted %+v", v)
		}
	})
	t.Run("unsorted-input", func(t *testing.T) {
		// Samples arrive in reply order; the quorum must not depend on it.
		v := quorum.Evaluate([]time.Duration{300 * ms, 2 * ms, 0, 1 * ms})
		if !v.OK || v.Update != ms {
			t.Fatalf("verdict = %+v, want OK at 1ms", v)
		}
	})
}

// authKey is the shared test credential for the MAC scenarios below.
var authKey = ntpauth.Key{ID: 5, Algo: ntpauth.AlgoSHA256, Secret: []byte("chronos-test-secret")}

func authTable(t *testing.T) *ntpauth.KeyTable {
	t.Helper()
	tbl, err := ntpauth.NewKeyTable(authKey)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// authedFarm builds count honest servers that verify and seal with the
// shared MAC key (but still serve unauthenticated requests).
func authedFarm(t *testing.T, n *simnet.Network, base simnet.IP, count int) []simnet.IP {
	t.Helper()
	ips := make([]simnet.IP, 0, count)
	for i := 0; i < count; i++ {
		ip := simnet.IPv4(base[0], base[1], base[2], byte(int(base[3])+i))
		host, err := n.AddHost(ip)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ntpserver.New(host, ntpserver.Config{
			Clock: clock.New(n.Now(), time.Duration(i%5-2)*time.Millisecond, 0),
			Auth:  &ntpauth.ServerAuth{Keys: authTable(t)},
		}); err != nil {
			t.Fatal(err)
		}
		ips = append(ips, ip)
	}
	return ips
}

// forgerFarm builds count hosts that answer every datagram on port 123
// with an unauthenticated DENY kiss echoing the request's transmit
// timestamp — the attacker-forged KoD move in miniature.
func forgerFarm(t *testing.T, n *simnet.Network, base simnet.IP, count int) []simnet.IP {
	t.Helper()
	ips := make([]simnet.IP, 0, count)
	for i := 0; i < count; i++ {
		ip := simnet.IPv4(base[0], base[1], base[2], byte(int(base[3])+i))
		host, err := n.AddHost(ip)
		if err != nil {
			t.Fatal(err)
		}
		h := host
		if err := host.Listen(ntpwire.Port, func(now time.Time, meta simnet.Meta, payload []byte) {
			var req, kiss ntpwire.Packet
			if ntpwire.DecodeInto(&req, payload) != nil {
				return
			}
			ntpauth.FillKoD(&kiss, ntpauth.KissDENY, &req, now)
			_ = h.SendUDP(ntpwire.Port, meta.From, kiss.Encode())
		}); err != nil {
			t.Fatal(err)
		}
		ips = append(ips, ip)
	}
	return ips
}

// TestAuthenticatedPoolSyncs: a require-auth client against a keyed pool
// applies updates with zero auth rejects; the same client against an
// unauthenticated pool rejects every reply and never updates.
func TestAuthenticatedPoolSyncs(t *testing.T) {
	mkAuth := func() *AuthPolicy {
		ca := &ntpauth.ClientAuth{Key: authKey, Require: true}
		return &AuthPolicy{ForServer: func(simnet.IP) *ntpauth.ClientAuth { return ca }}
	}
	cfg := Config{SampleSize: 9}

	t.Run("keyed-pool", func(t *testing.T) {
		n := simnet.New(simnet.Config{Seed: 201})
		ips := authedFarm(t, n, simnet.IPv4(203, 0, 1, 1), 30)
		ch, _ := n.AddHost(simnet.IPv4(10, 0, 0, 1))
		c := cfg
		c.Auth = mkAuth()
		cli := New(ch, clock.New(n.Now(), 15*time.Millisecond, 0), nil, c)
		if err := cli.SeedPool(ips); err != nil {
			t.Fatal(err)
		}
		n.RunFor(40 * time.Minute)
		st := cli.Stats()
		if st.Updates == 0 {
			t.Fatal("authenticated client applied no updates")
		}
		if st.AuthRejects != 0 {
			t.Fatalf("AuthRejects = %d against a fully keyed pool", st.AuthRejects)
		}
		if off := cli.Offset(); off < -10*time.Millisecond || off > 10*time.Millisecond {
			t.Errorf("offset = %v, want ~0", off)
		}
	})

	t.Run("unauthenticated-pool-rejected", func(t *testing.T) {
		n := simnet.New(simnet.Config{Seed: 202})
		_, ips, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 2, 1), 30, time.Millisecond, 0)
		if err != nil {
			t.Fatal(err)
		}
		ch, _ := n.AddHost(simnet.IPv4(10, 0, 0, 1))
		c := cfg
		c.Auth = mkAuth()
		cli := New(ch, clock.New(n.Now(), 15*time.Millisecond, 0), nil, c)
		if err := cli.SeedPool(ips); err != nil {
			t.Fatal(err)
		}
		n.RunFor(20 * time.Minute)
		st := cli.Stats()
		if st.Updates != 0 {
			t.Fatalf("require-auth client applied %d updates from an unauthenticated pool", st.Updates)
		}
		if st.AuthRejects == 0 {
			t.Fatal("no replies were auth-rejected")
		}
	})
}

// TestForgedKoDDeniesOnlyUnauthenticatedClients is the KoD arms race at
// client granularity: forged DENY kisses demobilize an unauthenticated
// (but KoD-compliant) client's associations, while a require-auth client
// ignores the same kisses (RFC 8915 §5.7) and keeps syncing.
func TestForgedKoDDeniesOnlyUnauthenticatedClients(t *testing.T) {
	run := func(seed int64, auth *AuthPolicy) (Stats, int, time.Duration) {
		n := simnet.New(simnet.Config{Seed: seed})
		honest := authedFarm(t, n, simnet.IPv4(203, 0, 3, 1), 40)
		forgers := forgerFarm(t, n, simnet.IPv4(66, 0, 0, 1), 10)
		ch, _ := n.AddHost(simnet.IPv4(10, 0, 0, 1))
		cli := New(ch, clock.New(n.Now(), 15*time.Millisecond, 0), nil, Config{
			SampleSize: 9, Auth: auth,
		})
		if err := cli.SeedPool(append(honest, forgers...)); err != nil {
			t.Fatal(err)
		}
		n.RunFor(2 * time.Hour)
		return cli.Stats(), cli.UsableServers(), cli.Offset()
	}

	// KoD-compliant but unauthenticated: every forged kiss is believed.
	st, usable, _ := run(203, &AuthPolicy{})
	if st.KoDKisses == 0 {
		t.Fatal("unauthenticated client saw no kisses")
	}
	if st.Demobilized == 0 {
		t.Fatal("forged DENY kisses demobilized nothing")
	}
	if usable >= 50 {
		t.Fatalf("usable servers = %d, want < 50 after forged DENY", usable)
	}

	// Require-auth: the same kisses are origin-valid but unauthenticated,
	// so the state machine must discard them.
	ca := &ntpauth.ClientAuth{Key: authKey, Require: true}
	st, usable, off := run(203, &AuthPolicy{ForServer: func(simnet.IP) *ntpauth.ClientAuth { return ca }})
	if st.KoDKisses == 0 {
		t.Fatal("require-auth client saw no kisses")
	}
	if st.Demobilized != 0 {
		t.Fatalf("require-auth client believed %d forged kisses", st.Demobilized)
	}
	if usable != 50 {
		t.Fatalf("usable servers = %d, want all 50", usable)
	}
	if st.Updates == 0 {
		t.Fatal("require-auth client stopped syncing under forged KoD")
	}
	if off < -10*time.Millisecond || off > 10*time.Millisecond {
		t.Errorf("offset = %v, want ~0", off)
	}
}

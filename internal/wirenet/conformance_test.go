package wirenet_test

import (
	"bytes"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
	"chronosntp/internal/wirenet"
	"chronosntp/internal/wirenet/interoptest"
)

// TestConformanceResponseBytes pins the real-socket serve path to the
// simnet serve path at the byte level: the same requests, arriving at
// the same (virtual) instants at servers with the same configuration,
// must produce bit-identical 48-byte replies. The shared
// ntpserver.Responder makes a reply a pure function of (config, now,
// request), so any divergence here means one transport grew semantics
// of its own.
func TestConformanceResponseBytes(t *testing.T) {
	const requests = 6
	interval := 250 * time.Millisecond
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC) // simnet's virtual origin

	scenarios := []struct {
		name   string
		offset time.Duration
		strat  ntpserver.ShiftStrategy
	}{
		{"honest-perfect", 0, nil},
		{"honest-slow-7ms", -7 * time.Millisecond, nil},
		{"malicious-shift-150ms", 0, ntpserver.ConstantShift(150 * time.Millisecond)},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// The identical request bytes for both paths: a perfect client
			// clock transmitting at start + k*interval.
			reqs := make([][]byte, requests)
			for k := range reqs {
				reqs[k] = ntpwire.NewClientPacket(start.Add(time.Duration(k) * interval)).Encode()
			}
			mkConfig := func(epoch time.Time) ntpserver.Config {
				return ntpserver.Config{
					Clock:    clock.New(epoch, sc.offset, 0),
					Strategy: sc.strat,
				}
			}

			// --- simnet path: zero latency, so arrival instant == send instant.
			nw := simnet.New(simnet.Config{
				Seed:    9,
				Latency: func(src, dst simnet.IP, rng *rand.Rand) time.Duration { return 0 },
			})
			serverHost, err := nw.AddHost(simnet.IP{203, 0, 113, 1})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := ntpserver.New(serverHost, mkConfig(start))
			if err != nil {
				t.Fatal(err)
			}
			clientHost, err := nw.AddHost(simnet.IP{10, 0, 0, 1})
			if err != nil {
				t.Fatal(err)
			}
			var simReplies [][]byte
			const clientPort = 40000
			if err := clientHost.Listen(clientPort, func(now time.Time, meta simnet.Meta, payload []byte) {
				simReplies = append(simReplies, append([]byte(nil), payload...))
			}); err != nil {
				t.Fatal(err)
			}
			for k := range reqs {
				req := reqs[k]
				nw.After(time.Duration(k)*interval, func() {
					if err := clientHost.SendUDP(clientPort, srv.Addr(), req); err != nil {
						t.Errorf("sim send: %v", err)
					}
				})
			}
			nw.RunFor(time.Duration(requests)*interval + time.Second)
			if len(simReplies) != requests {
				t.Fatalf("sim path: got %d replies, want %d", len(simReplies), requests)
			}

			// --- wire path: one listener replaying the same arrival instants
			// through an injected deterministic clock.
			served := 0
			wireNow := func() time.Time {
				now := start.Add(time.Duration(served) * interval)
				served++
				return now
			}
			wsrv, err := wirenet.Serve(wirenet.ServerConfig{
				Listeners: 1,
				Responder: ntpserver.NewResponder(mkConfig(start)),
				Now:       wireNow,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer wsrv.Close()
			conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(wsrv.AddrPort()))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var buf [64]byte
			for k := range reqs {
				if _, err := conn.Write(reqs[k]); err != nil {
					t.Fatal(err)
				}
				if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
					t.Fatal(err)
				}
				n, err := conn.Read(buf[:])
				if err != nil {
					t.Fatalf("wire reply %d: %v", k, err)
				}
				if !bytes.Equal(buf[:n], simReplies[k]) {
					t.Fatalf("reply %d differs between transports:\n  sim:  %x\n  wire: %x", k, simReplies[k], buf[:n])
				}
			}
		})
	}
}

// conformanceChronos is the shared rule parameterisation for the
// decision-conformance scenarios.
func conformanceChronos() chronos.Config {
	return chronos.Config{SampleSize: 9, QueryTimeout: 500 * time.Millisecond}
}

// runWireRounds boots a loopback farm and runs a Syncer over real UDP.
func runWireRounds(t *testing.T, honest, malicious int, honestErr time.Duration, strat ntpserver.ShiftStrategy, seed int64, rounds int) ([]wirenet.RoundTrace, chronos.Stats, []time.Duration) {
	t.Helper()
	farm, err := interoptest.StartFarm(interoptest.FarmConfig{
		Honest:    honest,
		HonestErr: honestErr,
		Malicious: malicious,
		Strategy:  strat,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	tr := &wirenet.UDPTransport{}
	sy, err := wirenet.NewSyncer(tr, wirenet.SyncerConfig{Pool: farm.Pool, Seed: seed, Chronos: conformanceChronos()})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]wirenet.RoundTrace, rounds)
	for r := range traces {
		traces[r] = sy.SyncRound()
	}
	return traces, sy.Stats(), farm.Offsets
}

// runSimRounds rebuilds the identical topology on the simulator —
// index-aligned servers with the same clock offsets and the same
// strategy — and runs a Syncer with the same seed over a SimTransport,
// whose exchanges are chronos.Client.Query, the exchange the experiments
// run.
func runSimRounds(t *testing.T, offsets []time.Duration, honest int, strat ntpserver.ShiftStrategy, seed int64, rounds int) ([]wirenet.RoundTrace, chronos.Stats) {
	t.Helper()
	nw := simnet.New(simnet.Config{Seed: 5})
	pool := make([]netip.AddrPort, 0, len(offsets))
	for i := range offsets {
		host, err := nw.AddHost(simnet.IP{203, 0, 113, byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		cfg := ntpserver.Config{}
		if i < honest {
			cfg.Clock = clock.New(nw.Now(), offsets[i], 0)
		} else {
			cfg.Strategy = strat
		}
		srv, err := ntpserver.New(host, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, srv.Addr().AddrPort())
	}
	clientHost, err := nw.AddHost(simnet.IP{10, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	st := &wirenet.SimTransport{Client: chronos.New(clientHost, &clock.Clock{}, nil, chronos.Config{})}
	sy, err := wirenet.NewSyncer(st, wirenet.SyncerConfig{Pool: pool, Seed: seed, Chronos: conformanceChronos()})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]wirenet.RoundTrace, rounds)
	for r := range traces {
		traces[r] = sy.SyncRound()
	}
	return traces, sy.Stats()
}

// TestConformanceRuleDecisions pins the chronos.Rule decision sequence
// across transports: the same seeded scenario — same pool composition,
// same honest clock errors, same attacker strategy, same sampling seed —
// must walk the identical verdict/action ladder (including re-sampling
// and panic escalation) whether samples travel over real loopback UDP
// or through the discrete-event simulator. Offsets differ only by
// link-jitter noise, so applied updates agree to a few milliseconds
// while every discrete decision agrees exactly.
func TestConformanceRuleDecisions(t *testing.T) {
	const rounds = 3
	scenarios := []struct {
		name      string
		honest    int
		malicious int
		honestErr time.Duration
		strat     ntpserver.ShiftStrategy
	}{
		{"honest-pool", 13, 0, 8 * time.Millisecond, nil},
		{"poisoned-two-thirds", 4, 9, 8 * time.Millisecond, ntpserver.ConstantShift(200 * time.Millisecond)},
	}
	const seed = 42
	const updateTolerance = 6 * time.Millisecond

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			wire, wireStats, offsets := runWireRounds(t, sc.honest, sc.malicious, sc.honestErr, sc.strat, seed, rounds)
			sim, simStats := runSimRounds(t, offsets, sc.honest, sc.strat, seed, rounds)

			for r := 0; r < rounds; r++ {
				w, s := wire[r], sim[r]
				if len(w.Attempts) != len(s.Attempts) {
					t.Fatalf("round %d: attempt counts differ: wire=%d sim=%d", r, len(w.Attempts), len(s.Attempts))
				}
				for a := range w.Attempts {
					if w.Attempts[a].OK != s.Attempts[a].OK || w.Attempts[a].Reason != s.Attempts[a].Reason {
						t.Fatalf("round %d attempt %d: verdicts differ: wire={ok:%v reason:%v} sim={ok:%v reason:%v}",
							r, a, w.Attempts[a].OK, w.Attempts[a].Reason, s.Attempts[a].OK, s.Attempts[a].Reason)
					}
					if w.Actions[a] != s.Actions[a] {
						t.Fatalf("round %d attempt %d: actions differ: wire=%v sim=%v", r, a, w.Actions[a], s.Actions[a])
					}
				}
				if w.Panicked != s.Panicked || w.Applied != s.Applied {
					t.Fatalf("round %d: outcome differs: wire={panic:%v applied:%v} sim={panic:%v applied:%v}",
						r, w.Panicked, w.Applied, s.Panicked, s.Applied)
				}
				if d := w.Update - s.Update; d < -updateTolerance || d > updateTolerance {
					t.Fatalf("round %d: applied updates diverge beyond jitter: wire=%v sim=%v", r, w.Update, s.Update)
				}
			}
			if wireStats.Updates != simStats.Updates || wireStats.Resamples != simStats.Resamples ||
				wireStats.Panics != simStats.Panics || wireStats.PanicUpdates != simStats.PanicUpdates {
				t.Fatalf("stats diverge:\n  wire: %+v\n  sim:  %+v", wireStats, simStats)
			}
		})
	}
}

// TestNewSyncerRejectsAuth: Syncer exchanges are unauthenticated, so a
// configuration that asks for authenticated time must be refused rather
// than silently served unauthenticated time.
func TestNewSyncerRejectsAuth(t *testing.T) {
	pool := []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:123")}
	cfg := conformanceChronos()
	if _, err := wirenet.NewSyncer(&wirenet.UDPTransport{}, wirenet.SyncerConfig{Pool: pool, Chronos: cfg}); err != nil {
		t.Fatalf("unauthenticated config refused: %v", err)
	}
	cfg.Auth = &chronos.AuthPolicy{}
	if _, err := wirenet.NewSyncer(&wirenet.UDPTransport{}, wirenet.SyncerConfig{Pool: pool, Chronos: cfg}); err == nil {
		t.Fatal("NewSyncer accepted a Chronos.Auth policy it would ignore")
	}
}

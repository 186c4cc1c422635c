package interoptest

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
	"chronosntp/internal/wirenet"
)

// interopChronos sizes the rule's sample for the small loopback pools
// these tests boot (the paper's m=15 assumes hundreds of servers).
func interopChronos() chronos.Config {
	return chronos.Config{SampleSize: 6, QueryTimeout: 500 * time.Millisecond}
}

// TestInteropHonestConvergence syncs a real chronos-rule client over
// loopback UDP against an all-honest farm with ±20ms clock errors:
// every round must accept on the first attempt and the disciplined
// clock must end up inside the honest error band.
func TestInteropHonestConvergence(t *testing.T) {
	farm, err := StartFarm(FarmConfig{Honest: 8, HonestErr: 20 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	tr := &wirenet.UDPTransport{}
	sy, err := wirenet.NewSyncer(tr, wirenet.SyncerConfig{
		Pool:    farm.Pool,
		Seed:    7,
		Chronos: interopChronos(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		trace := sy.SyncRound()
		if !trace.Applied || trace.Panicked {
			t.Fatalf("round %d against honest farm: applied=%v panicked=%v (attempts=%d)",
				r, trace.Applied, trace.Panicked, len(trace.Attempts))
		}
	}
	if st := sy.Stats(); st.Updates != rounds {
		t.Fatalf("updates=%d, want %d (stats %+v)", st.Updates, rounds, st)
	}
	if corr := sy.Correction(); corr < -25*time.Millisecond || corr > 25*time.Millisecond {
		t.Fatalf("correction %v outside the honest error band", corr)
	}
	if served := farm.TotalServed(); served < rounds*4 {
		t.Fatalf("farm served only %d requests", served)
	}
}

// TestInteropPoisonedPanic drives the client against a ≥2/3-poisoned
// farm lying far outside ErrBound: every attempt must fail C1/C2 and
// the round must escalate through re-sampling into panic mode, where
// the middle third — all attacker servers — sets the clock. This is the
// paper's pool-poisoning result reproduced over real sockets.
func TestInteropPoisonedPanic(t *testing.T) {
	lie := 300 * time.Millisecond
	farm, err := StartFarm(FarmConfig{
		Honest:    2,
		Malicious: 7,
		Strategy:  ntpserver.ConstantShift(lie),
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	tr := &wirenet.UDPTransport{}
	sy, err := wirenet.NewSyncer(tr, wirenet.SyncerConfig{
		Pool:    farm.Pool,
		Seed:    9,
		Chronos: interopChronos(),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sy.SyncRound()
	if !trace.Panicked || !trace.Applied {
		t.Fatalf("poisoned round did not panic+apply: %+v", trace)
	}
	for a, v := range trace.Attempts {
		if v.OK {
			t.Fatalf("attempt %d accepted a 300ms lie: %+v", a, v)
		}
	}
	if d := trace.Update - lie; d < -10*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("panic update %v, want ≈%v (middle third is all attackers)", trace.Update, lie)
	}
	st := sy.Stats()
	if st.Panics != 1 || st.PanicUpdates != 1 {
		t.Fatalf("stats %+v, want exactly one panic with an applied panic update", st)
	}
}

// startKoDServer runs a raw UDP responder that answers every request
// with a stratum-0 (kiss-o'-death range) packet echoing the origin —
// a reply that is well-formed but must be rejected by the client's
// validation.
func startKoDServer(t *testing.T) netip.AddrPort {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		var buf [1024]byte
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf[:])
			if err != nil {
				return
			}
			req, err := ntpwire.Decode(buf[:n])
			if err != nil {
				continue
			}
			kod := &ntpwire.Packet{
				Version:     4,
				Mode:        ntpwire.ModeServer,
				Stratum:     0,          // kiss-o'-death
				ReferenceID: 0x52415445, // "RATE"
				OriginTime:  req.TransmitTime,
			}
			_, _ = conn.WriteToUDPAddrPort(kod.Encode(), from)
		}
	}()
	return conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// TestInteropTimeoutAndKoD mixes a dead endpoint and a kiss-o'-death
// responder into an honest pool: both must contribute nothing (timeout
// and validation-reject respectively) while the round still completes
// off the honest majority.
func TestInteropTimeoutAndKoD(t *testing.T) {
	farm, err := StartFarm(FarmConfig{Honest: 6, HonestErr: 5 * time.Millisecond, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	// A bound-then-closed socket: queries to it either time out or fail
	// fast with a connection-refused from the kernel.
	deadConn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	dead := deadConn.LocalAddr().(*net.UDPAddr).AddrPort()
	deadConn.Close()

	pool := append(append([]netip.AddrPort{}, farm.Pool...), dead, startKoDServer(t))

	// m = 8 trims d = 2 from each end, so the six live repliers leave
	// two survivors.
	cfg := chronos.Config{SampleSize: 8, QueryTimeout: 150 * time.Millisecond}
	tr := &wirenet.UDPTransport{}
	sy, err := wirenet.NewSyncer(tr, wirenet.SyncerConfig{Pool: pool, Seed: 2, Chronos: cfg})
	if err != nil {
		t.Fatal(err)
	}
	trace := sy.SyncRound()
	if !trace.Applied || trace.Panicked {
		t.Fatalf("round failed despite honest majority: %+v", trace)
	}
	// m == pool size, so every attempt queried all eight endpoints and
	// the two broken ones must be the only missing replies.
	if got := trace.Replies[0]; got != 6 {
		t.Fatalf("first attempt got %d replies, want 6 (dead + KoD must contribute nothing)", got)
	}
}

// ObservedShift is the fleet attacker's adaptive MitM strategy on the
// wire: it reads the client's disciplined clock straight off the
// request's transmit timestamp and serves whatever lie places the
// measured sample exactly at Target — the request-aware trick the
// shiftsim engine's adaptive strategies use, here exercised over real
// sockets. Safe for concurrent use (stateless).
type ObservedShift struct {
	// Target is where the served sample should land, as seen by the
	// client (sample ≈ shift − clientError, so shift = Target + observed
	// client error).
	Target time.Duration
}

// Shift implements ntpserver.ShiftStrategy.
func (o ObservedShift) Shift(now time.Time, req *ntpwire.Packet, _ simnet.Addr) time.Duration {
	return o.Target + req.TransmitTime.TimeNear(now).Sub(now)
}

// TestInteropAdaptiveShiftAttack runs the fleet attacker's adaptive
// observed-clock strategy against a real client over loopback: each
// lie lands the sample just under ErrBound relative to the client's
// *disciplined* clock (read off the request's transmit timestamp), so
// no single round looks anomalous — every accepted update is within
// the C2 bound — yet the corrections compound round over round. This
// is the paper's time-shift pitfall end-to-end on real sockets.
func TestInteropAdaptiveShiftAttack(t *testing.T) {
	target := 24 * time.Millisecond // under ω (25ms) and ErrBound (30ms)
	farm, err := StartFarm(FarmConfig{
		Honest:    3,
		Malicious: 9,
		Strategy:  ObservedShift{Target: target},
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	tr := &wirenet.UDPTransport{}
	sy, err := wirenet.NewSyncer(tr, wirenet.SyncerConfig{
		Pool:    farm.Pool,
		Seed:    13,
		Chronos: interopChronos(),
	})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 10
	prev := time.Duration(0)
	for r := 0; r < rounds; r++ {
		trace := sy.SyncRound()
		if trace.Applied {
			if trace.Update > chronos.ErrBound+2*time.Millisecond {
				t.Fatalf("round %d: update %v exceeds ErrBound — attack was not sub-threshold", r, trace.Update)
			}
			if trace.Update < -2*time.Millisecond {
				t.Fatalf("round %d: attack lost ground: update %v", r, trace.Update)
			}
		}
		if corr := sy.Correction(); corr < prev-2*time.Millisecond {
			t.Fatalf("round %d: correction regressed from %v to %v", r, prev, corr)
		} else {
			prev = corr
		}
	}
	// The compounded shift must dwarf what any single round could inject.
	if corr := sy.Correction(); corr < 2*target {
		t.Fatalf("after %d rounds the attacker only shifted the clock %v (want ≥ %v)", rounds, corr, 2*target)
	}
	if tc := tr.Correction(); tc != sy.Correction() {
		t.Fatalf("transport clock (%v) and syncer bookkeeping (%v) disagree", tc, sy.Correction())
	}
}

package chronos

import (
	"math/rand"
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/simnet"
)

// TestSyncUnderPacketLoss: with 25% loss on the NTP legs the client loses
// some samples per round (counted as incomplete when below the reply
// floor) but still converges.
func TestSyncUnderPacketLoss(t *testing.T) {
	n := simnet.New(simnet.Config{
		Seed: 501,
		Loss: func(src, dst simnet.IP, rng *rand.Rand) bool {
			return rng.Float64() < 0.25
		},
	})
	_, ips, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 0, 1), 96, 2*time.Millisecond, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, clock.New(n.Now(), 25*time.Millisecond, 0), nil, Config{})
	if err := cli.SeedPool(ips); err != nil {
		t.Fatal(err)
	}
	n.RunFor(4 * time.Hour)
	if cli.Stats().Updates == 0 {
		t.Fatal("no updates under 25% loss")
	}
	off := cli.Offset()
	if off < -15*time.Millisecond || off > 15*time.Millisecond {
		t.Errorf("offset = %v, want converged despite loss", off)
	}
}

// TestAllServersUnreachable: every round is incomplete; the clock is never
// touched, and the client keeps trying instead of wedging.
func TestAllServersUnreachable(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 502})
	// Pool of addresses with no hosts behind them.
	ips := make([]simnet.IP, 50)
	for i := range ips {
		ips[i] = simnet.IPv4(203, 9, 9, byte(i+1))
	}
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, clock.New(n.Now(), 40*time.Millisecond, 0), nil, Config{})
	if err := cli.SeedPool(ips); err != nil {
		t.Fatal(err)
	}
	n.RunFor(40 * time.Minute)
	st := cli.Stats()
	if st.IncompleteRound == 0 {
		t.Error("no incomplete rounds recorded")
	}
	if st.Updates != 0 || st.PanicUpdates != 0 {
		t.Error("clock updated with zero reachable servers")
	}
	if off := cli.Offset(); off != 40*time.Millisecond {
		t.Errorf("offset = %v, want untouched 40ms", off)
	}
	if st.Rounds < 5 {
		t.Errorf("rounds = %d, client appears wedged", st.Rounds)
	}
}

// TestPartialReachabilityStillUpdates: exactly the reply floor (2m/3) of
// the sample reachable — rounds proceed.
func TestPartialReachabilityStillUpdates(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 503})
	_, live, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 0, 1), 80, time.Millisecond, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]simnet.IP, 16) // 1/6 of the pool dark
	for i := range dead {
		dead[i] = simnet.IPv4(203, 9, 9, byte(i+1))
	}
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, nil, Config{})
	if err := cli.SeedPool(append(live, dead...)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(2 * time.Hour)
	if cli.Stats().Updates == 0 {
		t.Error("no updates with 5/6 of the pool reachable")
	}
	if off := cli.Offset(); off < -10*time.Millisecond || off > 10*time.Millisecond {
		t.Errorf("offset = %v", off)
	}
}

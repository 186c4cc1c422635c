package ntpserver

import (
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

var (
	srvIP = simnet.IPv4(203, 0, 113, 1)
	cliIP = simnet.IPv4(10, 0, 0, 1)
)

// exchange performs one NTP client exchange and returns the response
// packet plus the client-side T1/T4 readings (client clock = true time).
func exchange(t *testing.T, n *simnet.Network, cli *simnet.Host, server simnet.Addr) (*ntpwire.Packet, time.Time, time.Time) {
	t.Helper()
	port := cli.EphemeralPort()
	var resp *ntpwire.Packet
	var t4 time.Time
	err := cli.Listen(port, func(now time.Time, meta simnet.Meta, payload []byte) {
		p, err := ntpwire.Decode(payload)
		if err == nil && p.Mode == ntpwire.ModeServer {
			resp, t4 = p, now
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close(port)
	t1 := n.Now()
	req := ntpwire.NewClientPacket(t1)
	if err := cli.SendUDP(port, server, req.Encode()); err != nil {
		t.Fatal(err)
	}
	n.RunFor(time.Second)
	if resp == nil {
		t.Fatal("no NTP response")
	}
	return resp, t1, t4
}

func TestHonestServerOffsetNearZero(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 41})
	sh, _ := n.AddHost(srvIP)
	srv, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(cliIP)
	resp, t1, t4 := exchange(t, n, ch, srv.Addr())

	offset, delay := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
	if offset < -time.Millisecond || offset > time.Millisecond {
		t.Errorf("offset = %v, want ~0 for perfect clocks", offset)
	}
	if delay <= 0 || delay > 50*time.Millisecond {
		t.Errorf("delay = %v", delay)
	}
	if resp.Stratum != 2 || resp.Mode != ntpwire.ModeServer {
		t.Errorf("resp fields: %+v", resp)
	}
	if srv.responder.queries.Load() != 1 {
		t.Errorf("queries = %d", srv.responder.queries.Load())
	}
	if srv.responder.cfg.Strategy != nil {
		t.Error("honest server reports malicious")
	}
}

func TestOriginEchoed(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 42})
	sh, _ := n.AddHost(srvIP)
	srv, _ := New(sh, Config{})
	ch, _ := n.AddHost(cliIP)
	resp, t1, _ := exchange(t, n, ch, srv.Addr())
	if resp.OriginTime != ntpwire.TimestampFromTime(t1) {
		t.Error("origin timestamp not echoed")
	}
}

func TestServerWithClockError(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 43})
	sh, _ := n.AddHost(srvIP)
	srv, err := New(sh, Config{Clock: clock.New(n.Now(), 50*time.Millisecond, 0)})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(cliIP)
	resp, t1, t4 := exchange(t, n, ch, srv.Addr())
	offset, _ := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
	if d := offset - 50*time.Millisecond; d < -2*time.Millisecond || d > 2*time.Millisecond {
		t.Errorf("offset = %v, want ~50ms", offset)
	}
}

func TestMaliciousConstantShift(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 44})
	sh, _ := n.AddHost(srvIP)
	srv, err := New(sh, Config{Strategy: ConstantShift(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if srv.responder.cfg.Strategy == nil {
		t.Error("server should report malicious")
	}
	ch, _ := n.AddHost(cliIP)
	resp, t1, t4 := exchange(t, n, ch, srv.Addr())
	offset, _ := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
	if d := offset - 10*time.Second; d < -5*time.Millisecond || d > 5*time.Millisecond {
		t.Errorf("offset = %v, want ~10s", offset)
	}
}

func TestShiftFuncAdaptive(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 45})
	sh, _ := n.AddHost(srvIP)
	start := n.Now()
	// Shift grows by 1ms per elapsed second — an adaptive strategy.
	srv, err := New(sh, Config{Strategy: ShiftFunc(func(now time.Time) time.Duration {
		elapsedSec := int64(now.Sub(start) / time.Second)
		return time.Duration(elapsedSec) * time.Millisecond
	})})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(cliIP)
	_, _, _ = exchange(t, n, ch, srv.Addr())
	n.RunFor(10 * time.Second)
	resp, t1, t4 := exchange(t, n, ch, srv.Addr())
	offset, _ := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
	if offset < 8*time.Millisecond {
		t.Errorf("adaptive shift too small: %v", offset)
	}
}

func TestNonClientPacketsIgnored(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 46})
	sh, _ := n.AddHost(srvIP)
	srv, _ := New(sh, Config{})
	ch, _ := n.AddHost(cliIP)
	port := ch.EphemeralPort()
	_ = ch.Listen(port, func(time.Time, simnet.Meta, []byte) {
		t.Error("unexpected response")
	})
	// Mode-4 (server) packet and garbage both ignored.
	p := ntpwire.NewClientPacket(n.Now())
	p.Mode = ntpwire.ModeServer
	_ = ch.SendUDP(port, srv.Addr(), p.Encode())
	_ = ch.SendUDP(port, srv.Addr(), []byte{1, 2, 3})
	n.RunFor(time.Second)
	if srv.responder.queries.Load() != 0 {
		t.Errorf("queries = %d, want 0", srv.responder.queries.Load())
	}
}

func TestFarm(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 47})
	servers, ips, err := Farm(n, simnet.IPv4(203, 0, 113, 10), 20, 20*time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 20 || len(ips) != 20 {
		t.Fatalf("farm size %d/%d", len(servers), len(ips))
	}
	// Addresses are consecutive and unique.
	seen := make(map[simnet.IP]bool)
	for _, ip := range ips {
		if seen[ip] {
			t.Fatal("duplicate farm IP")
		}
		seen[ip] = true
	}
	// Exchange with a couple of them; offsets within the error envelope.
	ch, _ := n.AddHost(cliIP)
	for _, srv := range servers[:3] {
		resp, t1, t4 := exchange(t, n, ch, srv.Addr())
		offset, _ := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
		if offset < -25*time.Millisecond || offset > 25*time.Millisecond {
			t.Errorf("farm server offset %v outside envelope", offset)
		}
	}
}

func TestFarmIPCarry(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 48})
	_, ips, err := Farm(n, simnet.IPv4(203, 0, 113, 250), 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := simnet.IPv4(203, 0, 114, 3) // 250+9 carries into the third octet
	if ips[9] != want {
		t.Errorf("ips[9] = %v, want %v", ips[9], want)
	}
}

func TestMaliciousFarmSharedStrategy(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 49})
	servers, _, err := MaliciousFarm(n, simnet.IPv4(66, 0, 0, 1), 5, ConstantShift(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(cliIP)
	for _, srv := range servers {
		if srv.responder.cfg.Strategy == nil {
			t.Error("farm server not malicious")
		}
		resp, t1, t4 := exchange(t, n, ch, srv.Addr())
		offset, _ := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
		if d := offset - time.Second; d < -5*time.Millisecond || d > 5*time.Millisecond {
			t.Errorf("offset = %v, want ~1s", offset)
		}
	}
}

// clockReader is a ShiftStrategy that reads the client's clock error off
// the request's TransmitTime and echoes back a lie sized to it.
type clockReader struct {
	observed time.Duration
	extra    time.Duration
}

func (c *clockReader) Shift(now time.Time, req *ntpwire.Packet, _ simnet.Addr) time.Duration {
	c.observed = req.TransmitTime.Time().Sub(now)
	return c.observed + c.extra
}

// TestRequestAwareStrategySeesClientClock: a request-aware strategy reads
// the client's error from the request (within one-way latency) and its
// served shift lands in the computed offset.
func TestRequestAwareStrategySeesClientClock(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 51})
	sh, _ := n.AddHost(srvIP)
	reader := &clockReader{extra: 40 * time.Millisecond}
	if _, err := New(sh, Config{Strategy: reader}); err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(cliIP)

	// Client whose clock runs 2 s ahead of true time: T1 in the request
	// leaks it.
	cliClk := clock.New(n.Now(), 2*time.Second, 0)
	port := ch.EphemeralPort()
	var resp *ntpwire.Packet
	var t4 time.Time
	_ = ch.Listen(port, func(now time.Time, meta simnet.Meta, payload []byte) {
		if p, err := ntpwire.Decode(payload); err == nil && p.Mode == ntpwire.ModeServer {
			resp, t4 = p, cliClk.Now(now)
		}
	})
	t1 := cliClk.Now(n.Now())
	_ = ch.SendUDP(port, simnet.Addr{IP: srvIP, Port: ntpwire.Port}, ntpwire.NewClientPacket(t1).Encode())
	n.RunFor(time.Second)
	if resp == nil {
		t.Fatal("no response")
	}
	// T1 is read one-way-latency after it was stamped, so the observation
	// undershoots the true error by the (small) one-way delay.
	if d := 2*time.Second - reader.observed; d < 0 || d > 10*time.Millisecond {
		t.Fatalf("strategy observed %v, want client error 2s (−one-way latency)", reader.observed)
	}
	offset, _ := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
	// Served shift = observed + 40ms, client-side offset = shift − 2s ≈
	// 40ms minus the observation undershoot.
	if offset < 30*time.Millisecond || offset > 45*time.Millisecond {
		t.Fatalf("client computed offset %v, want ≈ 40ms lie", offset)
	}
}

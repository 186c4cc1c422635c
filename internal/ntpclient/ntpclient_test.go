package ntpclient

import (
	"math/rand"
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

var clientIP = simnet.IPv4(10, 0, 0, 1)

// rig wires a network with an NTP server farm and one client.
type rig struct {
	net     *simnet.Network
	client  *Client
	servers []*ntpserver.Server
}

func newRig(t *testing.T, seed int64, honest, malicious int, shift time.Duration, initialErr time.Duration) *rig {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: seed})
	var ips []simnet.IP
	servers, hips, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 113, 1), honest, time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	ips = append(ips, hips...)
	if malicious > 0 {
		msrv, mips, err := ntpserver.MaliciousFarm(n, simnet.IPv4(66, 0, 0, 1), malicious, ntpserver.ConstantShift(shift))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, msrv...)
		ips = append(ips, mips...)
	}
	ch, err := n.AddHost(clientIP)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.New(n.Now(), initialErr, 0)
	cli := New(ch, clk, staticLookup(ips))
	return &rig{net: n, client: cli, servers: servers}
}

// staticLookup answers every lookup at once with an A record for each of
// its addresses.
type staticLookup []simnet.IP

func (s staticLookup) Lookup(name string, _ dnswire.Type, cb dnsresolver.Callback) {
	rrs := make([]dnswire.RR, len(s))
	for i, ip := range s {
		rrs[i] = dnswire.ARecord(name, 150, [4]byte(ip))
	}
	cb(dnsresolver.Result{RRs: rrs})
}

func start(t *testing.T, r *rig) {
	t.Helper()
	var startErr error
	done := false
	r.client.Start(func(err error) { startErr, done = err, true })
	r.net.RunFor(time.Second)
	if !done {
		t.Fatal("start never completed")
	}
	if startErr != nil {
		t.Fatal(startErr)
	}
}

func TestConvergesWithHonestServers(t *testing.T) {
	r := newRig(t, 61, 4, 0, 0, 90*time.Millisecond)
	start(t, r)
	r.net.RunFor(20 * time.Minute)
	off := r.client.Offset()
	if off < -10*time.Millisecond || off > 10*time.Millisecond {
		t.Errorf("offset after sync = %v, want ~0", off)
	}
	if r.client.stats.Syncs == 0 {
		t.Error("no syncs recorded")
	}
}

func TestStepsOnLargeInitialError(t *testing.T) {
	r := newRig(t, 62, 4, 0, 0, 2*time.Second)
	start(t, r)
	r.net.RunFor(8 * time.Minute)
	if r.client.stats.Steps == 0 {
		t.Error("expected a step for a 2s initial error")
	}
	off := r.client.Offset()
	if off < -10*time.Millisecond || off > 10*time.Millisecond {
		t.Errorf("offset = %v", off)
	}
}

func TestMinorityFalsetickerDiscarded(t *testing.T) {
	// 3 honest + 1 malicious (10s shift): the intersection algorithm must
	// keep the client honest.
	r := newRig(t, 63, 3, 1, 10*time.Second, 0)
	start(t, r)
	r.net.RunFor(20 * time.Minute)
	off := r.client.Offset()
	if off < -10*time.Millisecond || off > 10*time.Millisecond {
		t.Errorf("offset with minority falseticker = %v, want ~0", off)
	}
}

func TestMajorityAttackShiftsClient(t *testing.T) {
	// 1 honest + 3 malicious (all agreeing on +10s): classic NTP follows
	// the majority clique — this is the post-DNS-poisoning situation for
	// a traditional client.
	r := newRig(t, 64, 1, 3, 10*time.Second, 0)
	start(t, r)
	r.net.RunFor(20 * time.Minute)
	off := r.client.Offset()
	if off < 9*time.Second {
		t.Errorf("offset under majority attack = %v, want ~10s", off)
	}
}

func TestPanicThresholdRejectsHugeShift(t *testing.T) {
	// All servers claim a 2000s shift: beyond the panic threshold, the
	// client refuses to follow.
	r := newRig(t, 65, 0, 4, 2000*time.Second, 0)
	start(t, r)
	r.net.RunFor(20 * time.Minute)
	off := r.client.Offset()
	if off > time.Millisecond || off < -time.Millisecond {
		t.Errorf("offset = %v, want 0 (panic reject)", off)
	}
	if r.client.stats.PanicRejects == 0 {
		t.Error("no panic rejects recorded")
	}
}

func TestAttackerJustBelowPanicSucceeds(t *testing.T) {
	// The classic NTP weakness: a shift just below the panic threshold is
	// accepted (stepped) in a single poll.
	r := newRig(t, 66, 0, 4, 900*time.Second, 0)
	start(t, r)
	r.net.RunFor(8 * time.Minute)
	off := r.client.Offset()
	if off < 890*time.Second {
		t.Errorf("offset = %v, want ~900s", off)
	}
}

func TestMaxServersCap(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 67})
	_, ips, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 113, 1), 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, staticLookup(ips))
	var done bool
	cli.Start(func(err error) { done = err == nil })
	n.RunFor(time.Second)
	if !done {
		t.Fatal("start failed")
	}
	if got := len(cli.Servers()); got != 4 {
		t.Errorf("associations = %d, want capped at 4", got)
	}
}

func TestNoServersError(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 68})
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, staticLookup(nil))
	var gotErr error
	cli.Start(func(err error) { gotErr = err })
	n.RunFor(time.Second)
	if gotErr == nil {
		t.Error("expected ErrNoServers")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	r := newRig(t, 69, 2, 0, 0, 0)
	start(t, r)
	var second error
	r.client.Start(func(err error) { second = err })
	r.net.RunFor(time.Second)
	if second == nil {
		t.Error("second Start accepted")
	}
}

func TestStopHaltsPolling(t *testing.T) {
	r := newRig(t, 70, 2, 0, 0, 0)
	start(t, r)
	r.net.RunFor(2 * time.Minute)
	r.client.Stop()
	polls := r.client.stats.Polls
	r.net.RunFor(20 * time.Minute)
	if r.client.stats.Polls != polls {
		t.Error("polling continued after Stop")
	}
}

func TestSpoofedResponseWithoutOriginIgnored(t *testing.T) {
	// An off-path attacker spoofing the server address but not knowing
	// the client's transmit timestamp cannot inject time.
	r := newRig(t, 71, 1, 0, 0, 0)
	start(t, r)
	r.net.RunFor(time.Second)
	serverAddr := r.client.Servers()[0]

	// Continuously inject spoofed responses claiming +100s.
	for i := 0; i < 50; i++ {
		resp := &ntpwire.Packet{
			Version: 4, Mode: ntpwire.ModeServer, Stratum: 2,
			OriginTime:   ntpwire.TimestampFromTime(r.net.Now()), // wrong: not the client's T1
			ReceiveTime:  ntpwire.TimestampFromTime(r.net.Now().Add(100 * time.Second)),
			TransmitTime: ntpwire.TimestampFromTime(r.net.Now().Add(100 * time.Second)),
		}
		// The attacker must also guess the ephemeral port; try a spread.
		for port := uint16(49152); port < 49157; port++ {
			datagram := simnet.EncodeUDP(serverAddr, simnet.Addr{IP: clientIP, Port: port}, resp.Encode())
			r.net.Inject(simnet.Packet{
				Src: serverAddr.IP, Dst: clientIP, Proto: simnet.ProtoUDP,
				ID: uint16(i), Payload: datagram,
			}, time.Duration(i)*100*time.Millisecond)
		}
	}
	r.net.RunFor(2 * time.Minute)
	off := r.client.Offset()
	if off > 50*time.Millisecond || off < -50*time.Millisecond {
		t.Errorf("spoofed responses shifted client to %v", off)
	}
}

func TestDNSBootstrapOnce(t *testing.T) {
	// Client resolves pool.ntp.org through a resolver exactly once.
	n := simnet.New(simnet.Config{Seed: 72})
	_, ips, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 113, 1), 8, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	authHost, _ := n.AddHost(simnet.IPv4(198, 51, 100, 10))
	auth, _ := dnsserver.New(authHost)
	pool, err := dnsserver.NewPoolZone(dnsserver.PoolConfig{Name: "pool.ntp.org"}, n.Now(), ips)
	if err != nil {
		t.Fatal(err)
	}
	_ = auth.AddZone("pool.ntp.org", pool)

	resHost, _ := n.AddHost(simnet.IPv4(10, 0, 0, 53))
	res, err := dnsresolver.New(resHost, dnsresolver.Config{}, []dnsresolver.Hint{
		{Zone: "pool.ntp.org", Addr: auth.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}

	ch, _ := n.AddHost(clientIP)
	stub := dnsresolver.NewStub(ch, res.Addr(), 0)
	cli := New(ch, clock.New(n.Now(), 500*time.Millisecond, 0), stub)
	var startErr error
	done := false
	cli.Start(func(err error) { startErr, done = err, true })
	n.RunFor(5 * time.Second)
	if !done || startErr != nil {
		t.Fatalf("start: done=%v err=%v", done, startErr)
	}
	if got := len(cli.Servers()); got != 4 {
		t.Fatalf("servers = %d, want 4", got)
	}
	n.RunFor(40 * time.Minute)
	if off := cli.Offset(); off < -10*time.Millisecond || off > 10*time.Millisecond {
		t.Errorf("offset = %v", off)
	}
	// The classic client performed exactly one DNS resolution.
	if q := res.Stats().ClientQueries; q != 1 {
		t.Errorf("DNS client queries = %d, want 1 (resolve once at startup)", q)
	}
}

func TestIntersectUnit(t *testing.T) {
	mk := func(off, rd time.Duration) candidate {
		return candidate{offset: off, rdist: rd}
	}
	// Three clustered + one far falseticker.
	cands := []candidate{
		mk(0, 20*time.Millisecond),
		mk(2*time.Millisecond, 20*time.Millisecond),
		mk(-3*time.Millisecond, 20*time.Millisecond),
		mk(10*time.Second, 20*time.Millisecond),
	}
	got := intersect(cands)
	if len(got) != 3 {
		t.Fatalf("survivors = %d, want 3", len(got))
	}
	for _, s := range got {
		if s.offset > time.Second {
			t.Error("falseticker survived")
		}
	}
	// Empty in → empty out.
	if out := intersect(nil); len(out) != 0 {
		t.Error("intersect(nil) non-empty")
	}
	// Single candidate survives.
	if out := intersect(cands[:1]); len(out) != 1 {
		t.Error("single candidate should survive")
	}
	// Two disjoint candidates: no majority intersection exists.
	disjoint := []candidate{
		mk(0, time.Millisecond),
		mk(time.Second, time.Millisecond),
	}
	if out := intersect(disjoint); len(out) != 0 {
		t.Errorf("disjoint pair should yield no consensus, got %d", len(out))
	}
}

func TestClusterUnit(t *testing.T) {
	mk := func(off, rd time.Duration) candidate {
		return candidate{offset: off, rdist: rd}
	}
	survivors := []candidate{
		mk(0, time.Millisecond),
		mk(time.Millisecond, time.Millisecond),
		mk(-time.Millisecond, time.Millisecond),
		mk(400*time.Millisecond, time.Millisecond), // outlier by jitter
		mk(2*time.Millisecond, time.Millisecond),
	}
	got := cluster(survivors, 3)
	if len(got) > 4 {
		t.Fatalf("cluster kept %d", len(got))
	}
	for _, s := range got {
		if s.offset == 400*time.Millisecond && len(got) > 3 {
			t.Error("outlier survived clustering")
		}
	}
}

func TestCombineWeightsByDistance(t *testing.T) {
	survivors := []candidate{
		{offset: 0, rdist: time.Millisecond},                 // high weight
		{offset: 100 * time.Millisecond, rdist: time.Second}, // low weight
	}
	got := combine(survivors)
	if got > 10*time.Millisecond {
		t.Errorf("combine = %v, want dominated by the accurate server", got)
	}
	if combine(nil) != 0 {
		t.Error("combine(nil) != 0")
	}
}

func TestStringer(t *testing.T) {
	r := newRig(t, 73, 1, 0, 0, 0)
	if r.client.String() == "" {
		t.Error("String empty")
	}
}

// TestRATEBackOffOnlyOnBelievedKiss: the classic client believes every
// origin-valid RATE kiss, and each one makes the association sit out
// the next two polls.
func TestRATEBackOffOnlyOnBelievedKiss(t *testing.T) {
	const polls = 12
	n := simnet.New(simnet.Config{Seed: 3})
	srvIP := simnet.IPv4(66, 0, 0, 1)
	host, err := n.AddHost(srvIP)
	if err != nil {
		t.Fatal(err)
	}
	// Every request is answered with an unauthenticated RATE kiss that
	// echoes its origin.
	if err := host.Listen(ntpwire.Port, func(now time.Time, meta simnet.Meta, payload []byte) {
		var req, kiss ntpwire.Packet
		if ntpwire.DecodeInto(&req, payload) != nil {
			return
		}
		ntpauth.FillKoD(&kiss, ntpauth.KissRATE, &req, now)
		_ = host.SendUDP(ntpwire.Port, meta.From, kiss.Encode())
	}); err != nil {
		t.Fatal(err)
	}
	ch, err := n.AddHost(clientIP)
	if err != nil {
		t.Fatal(err)
	}
	cli := New(ch, &clock.Clock{}, staticLookup{srvIP})
	cli.Start(nil)
	n.RunFor(polls*pollInterval - time.Second)

	// Kissed at polls 0, 3, 6 and 9, sitting out the two after each.
	if st := cli.stats; st.Polls != polls || st.KoDKisses != polls/3 {
		t.Errorf("KoD-believing client: %d polls, %d kisses; want %d polls, %d kisses", st.Polls, st.KoDKisses, polls, polls/3)
	}
}

// TestExchange runs one Exchange per case against a scripted server. In
// every case cb fires exactly once, and the exchange's port is free
// afterwards.
func TestExchange(t *testing.T) {
	const (
		latency = 3 * time.Millisecond
		timeout = time.Second
	)
	srvIP := simnet.IPv4(66, 0, 0, 1)
	server := simnet.Addr{IP: srvIP, Port: ntpwire.Port}
	key := ntpauth.Key{ID: 5, Algo: ntpauth.AlgoSHA256, Secret: []byte("ntpclient-test-secret")}

	// A datagram the server sends back, from port, after a pause.
	type datagram struct {
		port  uint16
		after time.Duration
		pkt   ntpwire.Packet
	}
	// reply is a genuine server reply to req, stamped 40 ms ahead of true
	// time at receipt.
	reply := func(req *ntpwire.Packet, now time.Time) ntpwire.Packet {
		t2 := now.Add(40 * time.Millisecond)
		return ntpwire.Packet{
			Version: ntpwire.Version, Mode: ntpwire.ModeServer, Stratum: 2,
			OriginTime:   req.TransmitTime,
			ReceiveTime:  ntpwire.TimestampFromTime(t2),
			TransmitTime: ntpwire.TimestampFromTime(t2.Add(10 * time.Microsecond)),
		}
	}
	kiss := func(code ntpauth.KissCode) func(*ntpwire.Packet, time.Time) []datagram {
		return func(req *ntpwire.Packet, now time.Time) []datagram {
			var k ntpwire.Packet
			ntpauth.FillKoD(&k, code, req, now)
			return []datagram{{port: ntpwire.Port, pkt: k}}
		}
	}
	genuine := func(req *ntpwire.Packet, now time.Time) []datagram {
		return []datagram{{port: ntpwire.Port, pkt: reply(req, now)}}
	}

	cases := []struct {
		name     string
		auth     *ntpauth.ClientAuth
		withKoD  bool
		noPorts  bool // every ephemeral port of the client is taken
		answer   func(req *ntpwire.Packet, now time.Time) []datagram
		ok       bool
		timesOut bool // cb fires at the deadline
		want     Replies
		dead     bool // the KoD state ends demobilized
	}{
		{name: "valid reply", withKoD: true, answer: genuine, ok: true},
		{name: "RATE kiss with KoD state", withKoD: true, answer: kiss(ntpauth.KissRATE),
			want: Replies{KoDKisses: 1}},
		{name: "DENY kiss with KoD state", withKoD: true, answer: kiss(ntpauth.KissDENY),
			want: Replies{KoDKisses: 1, Demobilized: 1}, dead: true},
		{name: "kiss with nil KoD state", answer: kiss(ntpauth.KissDENY), timesOut: true},
		{name: "reply refused by require-auth", auth: &ntpauth.ClientAuth{Key: key, Require: true},
			withKoD: true, answer: genuine, timesOut: true, want: Replies{AuthRejects: 1}},
		{name: "reply from wrong source", answer: func(req *ntpwire.Packet, now time.Time) []datagram {
			return []datagram{{port: ntpwire.Port + 1, pkt: reply(req, now)}}
		}, timesOut: true},
		{name: "stale origin", answer: func(req *ntpwire.Packet, now time.Time) []datagram {
			p := reply(req, now)
			p.OriginTime--
			return []datagram{{port: ntpwire.Port, pkt: p}}
		}, timesOut: true},
		{name: "second reply ignored", withKoD: true, answer: func(req *ntpwire.Packet, now time.Time) []datagram {
			second := reply(req, now.Add(time.Hour))
			return []datagram{{port: ntpwire.Port, pkt: reply(req, now)}, {port: ntpwire.Port, after: time.Millisecond, pkt: second}}
		}, ok: true},
		{name: "no free ephemeral port", noPorts: true, answer: genuine},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := simnet.New(simnet.Config{Seed: 5, Latency: func(_, _ simnet.IP, _ *rand.Rand) time.Duration { return latency }})
			srv, err := n.AddHost(srvIP)
			if err != nil {
				t.Fatal(err)
			}
			var (
				requests int
				from     simnet.Addr
				first    ntpwire.Packet // the first datagram sent back
			)
			if err := srv.Listen(ntpwire.Port, func(now time.Time, meta simnet.Meta, payload []byte) {
				var req ntpwire.Packet
				if ntpwire.DecodeInto(&req, payload) != nil {
					t.Error("server received an undecodable request")
					return
				}
				requests++
				from = meta.From
				for i, d := range tc.answer(&req, now) {
					if i == 0 {
						first = d.pkt
					}
					b := d.pkt.Encode()
					port := d.port
					n.After(d.after, func() { _ = srv.SendUDP(port, meta.From, b) })
				}
			}); err != nil {
				t.Fatal(err)
			}
			cli, err := n.AddHost(clientIP)
			if err != nil {
				t.Fatal(err)
			}
			if tc.noPorts {
				for p := 49152; p < 1<<16; p++ {
					if err := cli.Listen(uint16(p), func(time.Time, simnet.Meta, []byte) {}); err != nil {
						t.Fatal(err)
					}
				}
			}
			clk := clock.New(n.Now(), -250*time.Millisecond, 0)
			var kod *ntpauth.AssocState
			if tc.withKoD {
				kod = new(ntpauth.AssocState)
			}
			var (
				got   Replies
				buf   []byte
				calls int
				ok    bool
				off   time.Duration
				delay time.Duration
				at    time.Time
			)
			start := n.Now()
			Exchange(cli, clk, server, tc.auth, kod, timeout, &buf, &got, func(o, d time.Duration, k bool) {
				calls++
				off, delay, ok, at = o, d, k, n.Now()
			})
			n.RunFor(2 * timeout)

			if calls != 1 {
				t.Fatalf("cb fired %d times, want once", calls)
			}
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if got != tc.want {
				t.Errorf("Replies = %+v, want %+v", got, tc.want)
			}
			if tc.dead != (kod != nil && !kod.Usable()) {
				t.Errorf("KoD state %+v, want demobilized %v", kod, tc.dead)
			}
			switch {
			case tc.noPorts:
				if requests != 0 || !at.Equal(start) {
					t.Errorf("without a port: %d requests sent, cb at %v; want none, at once", requests, at.Sub(start))
				}
				return
			case tc.timesOut:
				if !at.Equal(start.Add(timeout)) {
					t.Errorf("cb at %v, want the %v deadline", at.Sub(start), timeout)
				}
			default:
				if !at.Equal(start.Add(2 * latency)) {
					t.Errorf("cb at %v, want the first reply's arrival at %v", at.Sub(start), 2*latency)
				}
			}
			if requests != 1 {
				t.Fatalf("server saw %d requests, want 1", requests)
			}
			if tc.ok {
				wantOff, wantDelay := ntpwire.OffsetDelay(clk.Now(start), first.ReceiveTime.Time(), first.TransmitTime.Time(), clk.Now(at))
				if off != wantOff || delay != wantDelay {
					t.Errorf("offset, delay = %v, %v; want %v, %v", off, delay, wantOff, wantDelay)
				}
			} else if off != 0 || delay != 0 {
				t.Errorf("failed exchange reported offset %v, delay %v", off, delay)
			}
			if cli.Close(from.Port) {
				t.Errorf("port %d still bound after the exchange", from.Port)
			}
		})
	}
}

// TestExchangeAcrossEraRollover: NTP timestamps carry seconds modulo 2^32,
// so from 2036-02-07T06:28:16Z on they name instants of era 1. An exchange
// with a perfect-clock server must measure a near-zero offset before the
// rollover, across it and well after it, not 2^32 s.
func TestExchangeAcrossEraRollover(t *testing.T) {
	rollover := time.Date(2036, 2, 7, 6, 28, 16, 0, time.UTC)
	for _, start := range []time.Time{
		time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC),
		rollover.Add(-time.Millisecond),
		time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		t.Run(start.Format(time.RFC3339Nano), func(t *testing.T) {
			n := simnet.New(simnet.Config{Seed: 9, Start: start})
			_, ips, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 113, 1), 1, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			cli, err := n.AddHost(clientIP)
			if err != nil {
				t.Fatal(err)
			}
			var (
				buf     []byte
				replies Replies
				off     time.Duration
				ok      bool
			)
			Exchange(cli, clock.New(n.Now(), 0, 0), simnet.Addr{IP: ips[0], Port: ntpwire.Port}, nil, nil,
				time.Second, &buf, &replies, func(o, _ time.Duration, answered bool) { off, ok = o, answered })
			n.RunFor(2 * time.Second)
			if !ok {
				t.Fatal("no reply")
			}
			if off < -10*time.Millisecond || off > 10*time.Millisecond {
				t.Fatalf("offset %v against a perfect clock", off)
			}
		})
	}
}

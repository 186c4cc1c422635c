package chronos

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/simnet"
)

var (
	rootIP     = simnet.IPv4(198, 41, 0, 4)
	ntpOrgIP   = simnet.IPv4(198, 51, 100, 10)
	resolverIP = simnet.IPv4(10, 0, 0, 53)
	clientIP   = simnet.IPv4(10, 0, 0, 1)
)

// dnsRig wires the full hierarchy: root → ntp.org → pool zone over a farm
// of real NTP servers, a caching resolver, and a Chronos client host.
type dnsRig struct {
	net    *simnet.Network
	pool   *dnsserver.PoolZone
	client *Client
}

func newDNSRig(t *testing.T, seed int64, farmSize int, cfg Config) *dnsRig {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: seed})

	_, ips, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 0, 1), farmSize, time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}

	rootHost, _ := n.AddHost(rootIP)
	rootSrv, _ := dnsserver.New(rootHost)
	rootZone := dnsserver.NewDelegatingZone("")
	rootZone.Delegate(dnsserver.Delegation{
		Child: "ntp.org", NSTTL: 3600,
		Glue: []dnsserver.NSGlue{{Name: "ns1.ntp.org", IP: ntpOrgIP, TTL: 3600}},
	})
	_ = rootSrv.AddZone("", rootZone)

	ntpHost, _ := n.AddHost(ntpOrgIP)
	ntpSrv, _ := dnsserver.New(ntpHost)
	pool, err := dnsserver.NewPoolZone(dnsserver.PoolConfig{Name: "pool.ntp.org"}, n.Now(), ips)
	if err != nil {
		t.Fatal(err)
	}
	_ = ntpSrv.AddZone("pool.ntp.org", pool)

	resHost, _ := n.AddHost(resolverIP)
	res, err := dnsresolver.New(resHost, dnsresolver.Config{}, []dnsresolver.Hint{
		{Zone: "", Addr: simnet.Addr{IP: rootIP, Port: 53}},
	})
	if err != nil {
		t.Fatal(err)
	}

	ch, _ := n.AddHost(clientIP)
	stub := dnsresolver.NewStub(ch, res.Addr(), 0)
	cli := New(ch, &clock.Clock{}, stub, cfg)
	return &dnsRig{net: n, pool: pool, client: cli}
}

func TestPoolGeneration24Queries(t *testing.T) {
	r := newDNSRig(t, 91, 500, Config{})
	var buildErr error
	built := false
	r.client.BuildPool(func(err error) { buildErr, built = err, true })
	r.net.RunFor(25 * time.Hour)
	if !built {
		t.Fatal("pool generation never completed")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	size := r.client.PoolSize()
	if size < 80 || size > 96 {
		t.Errorf("pool size = %d, want ~96 (24 queries x 4 records, minus collisions)", size)
	}
	if got := r.client.Stats().PoolQueries; got != 24 {
		t.Errorf("pool queries = %d, want 24", got)
	}
	// Every entry carries the index of the query that contributed it.
	for _, e := range r.client.Pool() {
		if e.QueryIdx < 1 || e.QueryIdx > 24 {
			t.Fatalf("bad QueryIdx %d", e.QueryIdx)
		}
	}
}

func TestPoolTargetStopsEarly(t *testing.T) {
	r := newDNSRig(t, 92, 500, Config{PoolTarget: 10})
	r.client.BuildPool(nil)
	r.net.RunFor(25 * time.Hour)
	if got := r.client.PoolSize(); got != 10 {
		t.Errorf("pool size = %d, want capped at 10", got)
	}
}

func TestDoubleBuildRejected(t *testing.T) {
	r := newDNSRig(t, 93, 20, Config{PoolQueries: 1})
	r.client.BuildPool(nil)
	var second error
	r.client.BuildPool(func(err error) { second = err })
	r.net.RunFor(time.Minute)
	if second == nil {
		t.Error("second BuildPool accepted")
	}
}

func TestEmptyPoolReported(t *testing.T) {
	// Client pointed at a resolver with no route to any pool: every query
	// fails, pool ends empty.
	n := simnet.New(simnet.Config{Seed: 94})
	resHost, _ := n.AddHost(resolverIP)
	res, err := dnsresolver.New(resHost, dnsresolver.Config{Timeout: time.Second, Retries: 1},
		[]dnsresolver.Hint{{Zone: "", Addr: simnet.Addr{IP: rootIP, Port: 53}}}) // dead root
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(clientIP)
	stub := dnsresolver.NewStub(ch, res.Addr(), 0)
	cli := New(ch, &clock.Clock{}, stub, Config{PoolQueries: 2})
	var buildErr error
	cli.BuildPool(func(err error) { buildErr = err })
	n.RunFor(2 * time.Hour)
	if buildErr != ErrPoolEmpty {
		t.Errorf("err = %v, want ErrPoolEmpty", buildErr)
	}
}

func TestHonestPoolSyncs(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 95})
	_, ips, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 0, 1), 96, 2*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, clock.New(n.Now(), 20*time.Millisecond, 0), nil, Config{})
	if err := cli.SeedPool(ips); err != nil {
		t.Fatal(err)
	}
	n.RunFor(40 * time.Minute)
	if cli.Stats().Updates == 0 {
		t.Fatal("no updates applied")
	}
	off := cli.Offset()
	if off < -10*time.Millisecond || off > 10*time.Millisecond {
		t.Errorf("offset = %v, want ~0", off)
	}
}

func TestMinorityAttackerContained(t *testing.T) {
	// Attacker controls ~20% of the pool with a large constant shift.
	// Chronos must keep the client within a few ms of true time.
	n := simnet.New(simnet.Config{Seed: 96})
	_, honest, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 0, 1), 80, 2*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, evil, err := ntpserver.MaliciousFarm(n, simnet.IPv4(66, 0, 0, 1), 20, ntpserver.ConstantShift(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, nil, Config{})
	if err := cli.SeedPool(append(honest, evil...)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(4 * time.Hour)
	off := cli.Offset()
	if off < -20*time.Millisecond || off > 20*time.Millisecond {
		t.Errorf("offset with 20%% attacker = %v, want ~0", off)
	}
}

func TestSupermajorityAttackerWins(t *testing.T) {
	// The paper's end state: 44 benign + 89 malicious pool (attacker
	// ≥ 2/3). An adaptive attacker ramping its shift below the client's
	// acceptance bound drags the clock away — through the normal path
	// when it captures ≥ 2m/3 of a sample, and through panic mode
	// otherwise.
	n := simnet.New(simnet.Config{Seed: 97})
	start := n.Now()
	_, honest, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 0, 1), 44, 2*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	ramp := ntpserver.ShiftFunc(func(now time.Time) time.Duration {
		rounds := int64(now.Sub(start) / SyncInterval)
		return time.Duration(rounds) * 20 * time.Millisecond // < ErrBound per round
	})
	_, evil, err := ntpserver.MaliciousFarm(n, simnet.IPv4(66, 0, 0, 1), 89, ramp)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, nil, Config{})
	if err := cli.SeedPool(append(honest, evil...)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(8 * time.Hour)
	off := cli.Offset()
	if off < 100*time.Millisecond {
		t.Errorf("offset under 2/3 attacker = %v, want > 100ms (the paper's attack goal)", off)
	}
}

func TestPanicModeRecoversHonestPool(t *testing.T) {
	// Force condition failures (one noisy server answering wildly inside
	// every sample is unlikely; instead: attacker with ~30% makes C1 fail
	// often). Panic mode must restore the honest average.
	n := simnet.New(simnet.Config{Seed: 98})
	_, honest, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 0, 1), 66, 2*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, evil, err := ntpserver.MaliciousFarm(n, simnet.IPv4(66, 0, 0, 1), 30, ntpserver.ConstantShift(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, nil, Config{})
	if err := cli.SeedPool(append(honest, evil...)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(8 * time.Hour)
	if cli.Offset() > 50*time.Millisecond || cli.Offset() < -50*time.Millisecond {
		t.Errorf("offset = %v, want contained", cli.Offset())
	}
	// With 30% malicious, some rounds must have failed into resample or
	// panic, and the client must still have made progress.
	st := cli.Stats()
	if st.Resamples == 0 {
		t.Error("expected some resamples with a 30% attacker")
	}
	if st.Updates+st.PanicUpdates == 0 {
		t.Error("no clock updates at all")
	}
}

func TestPoolPolicyRejectsOversizedResponse(t *testing.T) {
	// §V mitigation inside the client: a pool response with 89 records is
	// discarded when MaxAddrsPerResponse is 4.
	n := simnet.New(simnet.Config{Seed: 99})
	srvHost, _ := n.AddHost(ntpOrgIP)
	srv, _ := dnsserver.New(srvHost)
	inventory := make([]simnet.IP, 200)
	for i := range inventory {
		inventory[i] = simnet.IPv4(66, 0, byte(i/200), byte(i%200))
	}
	// A "malicious" pool zone answering with 89 records at once.
	_ = srv.AddZone("pool.ntp.org", staticPool(inventory[:89], 7*86400))
	resHost, _ := n.AddHost(resolverIP)
	res, err := dnsresolver.New(resHost, dnsresolver.Config{EDNSSize: 4096}, []dnsresolver.Hint{
		{Zone: "pool.ntp.org", Addr: simnet.Addr{IP: ntpOrgIP, Port: 53}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(clientIP)
	stub := dnsresolver.NewStub(ch, res.Addr(), 0)

	cli := New(ch, &clock.Clock{}, stub, Config{
		PoolQueries: 2,
		Policy:      PoolPolicy{MaxAddrsPerResponse: 4},
	})
	var buildErr error
	cli.BuildPool(func(err error) { buildErr = err })
	n.RunFor(2 * time.Hour)
	if buildErr != ErrPoolEmpty {
		t.Errorf("buildErr = %v, want ErrPoolEmpty (all responses rejected)", buildErr)
	}
	if cli.Stats().PolicyDiscards == 0 {
		t.Error("no policy discards recorded")
	}
}

func TestPoolPolicyRejectsHighTTL(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 100})
	srvHost, _ := n.AddHost(ntpOrgIP)
	srv, _ := dnsserver.New(srvHost)
	inventory := make([]simnet.IP, 50)
	for i := range inventory {
		inventory[i] = simnet.IPv4(66, 0, 113, byte(i+1))
	}
	_ = srv.AddZone("pool.ntp.org", staticPool(inventory[:4], 7*86400))
	resHost, _ := n.AddHost(resolverIP)
	res, _ := dnsresolver.New(resHost, dnsresolver.Config{}, []dnsresolver.Hint{
		{Zone: "pool.ntp.org", Addr: simnet.Addr{IP: ntpOrgIP, Port: 53}},
	})
	ch, _ := n.AddHost(clientIP)
	stub := dnsresolver.NewStub(ch, res.Addr(), 0)
	cli := New(ch, &clock.Clock{}, stub, Config{
		PoolQueries: 1,
		Policy:      PoolPolicy{MaxTTL: 24 * time.Hour},
	})
	var buildErr error
	cli.BuildPool(func(err error) { buildErr = err })
	n.RunFor(time.Hour)
	if buildErr != ErrPoolEmpty {
		t.Errorf("buildErr = %v, want ErrPoolEmpty", buildErr)
	}
}

// staticPool answers every pool.ntp.org A query with one A record per
// address, each with the given TTL.
func staticPool(addrs []simnet.IP, ttl uint32) *dnsserver.StaticZone {
	z := dnsserver.NewStaticZone("pool.ntp.org")
	for _, ip := range addrs {
		z.Add(dnswire.ARecord("pool.ntp.org", ttl, [4]byte(ip)))
	}
	return z
}

func TestSeedPoolValidation(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 101})
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, nil, Config{})
	if err := cli.SeedPool(nil); err != ErrPoolEmpty {
		t.Errorf("err = %v, want ErrPoolEmpty", err)
	}
	if err := cli.SeedPool([]simnet.IP{simnet.IPv4(1, 2, 3, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := cli.SeedPool([]simnet.IP{simnet.IPv4(1, 2, 3, 5)}); err != ErrAlreadyBuilt {
		t.Errorf("err = %v, want ErrAlreadyBuilt", err)
	}
	if !cli.poolBuilt {
		t.Error("PoolBuilt false after seed")
	}
}

func TestStopHaltsRounds(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 102})
	_, ips, _ := ntpserver.Farm(n, simnet.IPv4(203, 0, 0, 1), 20, 0, 0)
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, nil, Config{})
	_ = cli.SeedPool(ips)
	n.RunFor(4 * time.Minute)
	cli.Stop()
	rounds := cli.Stats().Rounds
	n.RunFor(40 * time.Minute)
	if cli.Stats().Rounds != rounds {
		t.Error("rounds continued after Stop")
	}
}

func TestTrimmedUnit(t *testing.T) {
	xs := []time.Duration{5, 1, 9, 3, 7}
	got := survivors(xs, 1)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	// The block is unordered, but selection places the boundary ranks.
	if got[0] != 3 || got[2] != 7 {
		t.Errorf("survivor block %v, want rank 1 (3) first and rank 3 (7) last", got)
	}
	if lo, hi, sum := blockStats(got); lo != 3 || hi != 7 || sum != 15 {
		t.Errorf("blockStats = %v, %v, %v, want 3, 7, 15", lo, hi, sum)
	}
	// Trim too large: every sample survives.
	if got := survivors(xs, 3); len(got) != 5 {
		t.Errorf("over-trim returned %d elements", len(got))
	}
	if mean(nil) != 0 {
		t.Error("mean(nil) != 0")
	}
	if absDur(-time.Second) != time.Second || absDur(time.Second) != time.Second {
		t.Error("absDur broken")
	}
}

// Property: with at most d attacker samples among m, the trimmed mean
// (trim d) stays within the honest samples' range — the robustness
// invariant Chronos' security proof rests on.
func TestTrimmedMeanRobustnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 6 + rng.Intn(12) // 6..17
		d := m / 3
		k := rng.Intn(d + 1) // attacker samples: 0..d
		honest := make([]time.Duration, m-k)
		for i := range honest {
			honest[i] = time.Duration(rng.Intn(50)) * time.Millisecond
		}
		attacker := make([]time.Duration, k)
		for i := range attacker {
			// Arbitrary adversarial values, positive or negative, huge.
			attacker[i] = time.Duration(rng.Int63n(int64(2*time.Hour))) - time.Hour
		}
		all := append(append([]time.Duration(nil), honest...), attacker...)
		surv := survivors(all, d)
		avg := mean(surv)

		lo, hi := honest[0], honest[0]
		for _, h := range honest[1:] {
			if h < lo {
				lo = h
			}
			if h > hi {
				hi = h
			}
		}
		return avg >= lo && avg <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: with at least m−d attacker samples all equal to v, the
// surviving set is entirely attacker-controlled and the trimmed mean
// equals v — the capture condition the paper's pool poisoning reaches.
func TestTrimmedMeanCaptureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 9 + 3*rng.Intn(4) // 9, 12, 15, 18
		d := m / 3
		k := m - d + rng.Intn(d+1) // attacker: m-d .. m
		if k > m {
			k = m
		}
		v := time.Duration(rng.Int63n(int64(time.Hour)))
		all := make([]time.Duration, 0, m)
		for i := 0; i < k; i++ {
			all = append(all, v)
		}
		for i := k; i < m; i++ {
			all = append(all, time.Duration(rng.Intn(10))*time.Millisecond)
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		surv := survivors(all, d)
		// All survivors equal v iff attacker fully captured the window.
		sorted := append([]time.Duration(nil), all...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		captured := true
		for _, s := range surv {
			if s != v {
				captured = false
			}
		}
		if k >= m-d && v > 10*time.Millisecond {
			return captured && mean(surv) == v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 103})
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, nil, Config{})
	if cli.String() == "" {
		t.Error("String empty")
	}
}

// TestSyncRoundAllocCeiling holds the packet client's steady-state sync
// round — Begin, m Query exchanges against an honest farm, Offer, Step —
// to its allocation count, so a helper closure or a boxed value on the
// per-query path (m of them per round) shows up as a failure rather than
// as a slower E1–E11.
func TestSyncRoundAllocCeiling(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 77})
	_, ips, err := ntpserver.Farm(n, simnet.IPv4(203, 0, 0, 1), 60, 2*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(clientIP)
	cli := New(ch, &clock.Clock{}, nil, Config{})
	if err := cli.SeedPool(ips); err != nil {
		t.Fatal(err)
	}
	// A round applies one query timeout after it starts and schedules the
	// next a sync interval later.
	period := SyncInterval + cli.cfg().QueryTimeout
	n.RunFor(10 * period) // warm the event and datagram pools
	before := cli.Stats()
	allocs := testing.AllocsPerRun(50, func() { n.RunFor(period) })
	st := cli.Stats()
	if rounds := st.Rounds - before.Rounds; rounds != 51 || st.Updates-before.Updates != rounds {
		t.Fatalf("measured %d rounds with %d updates, want 51 first-attempt updates", rounds, st.Updates-before.Updates)
	}
	// Measured with go1.24: 80 at m = 15 — five per exchange (the
	// caller's callback, the reply handler, the deadline callback and
	// the two variables they share) plus five for the round's sample and
	// offset slices. A closure added per Query reads 95.
	const ceiling = 80
	t.Logf("%.1f allocs per sync round (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("sync round allocates %.1f times, ceiling %d", allocs, ceiling)
	}
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"chronosntp/internal/attack"
	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/core"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnsserver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/ipfrag"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// A layer probe pushes a fixed number of operations through one layer's
// public functions, with inputs shaped like the workloads', and records
// time and heap allocations per operation under the probe's metric names.
type probe struct {
	name string
	run  func(out map[string]float64) error
}

var probes = []probe{
	{"simnet.event", probeSimnetEvent},
	{"simnet.send_deliver", probeSimnetSend},
	{"simnet.fastforward", probeSimnetFastForward},
	{"chronos.sample_evaluate", probeChronosSample},
	{"chronos.build_pool", probeChronosBuildPool},
	{"dnsresolver.cache", probeResolverCache},
	{"dnsserver.poolzone", probePoolZone},
	{"dnswire.roundtrip", probeDNSWire},
	{"ipfrag.split_reassemble", probeIPFrag},
	{"core.scenario", probeCoreScenario},
	{"ntpwire.roundtrip", probeNTPWire},
	{"ntpserver.serve", probeNTPServe},
	{"ntpauth.mac_verify", probeMACVerify},
}

// runProbes runs every probe, each inside its own span.
func runProbes(s *session) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		if err := s.span("probe."+p.name, func() error { return p.run(out) }); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return out, nil
}

// probePasses is how many timed passes a probe makes; it reports the
// median pass.
const probePasses = 5

// timeOps runs op(ops) once to warm up, then probePasses more times, and
// returns the median nanoseconds per operation and the heap allocations
// per operation of the last pass.
func timeOps(ops int, op func(n int) error) (nsPerOp, allocsPerOp float64, err error) {
	if err := op(ops); err != nil {
		return 0, 0, err
	}
	ns := make([]float64, probePasses)
	for i := range ns {
		before := readCounters().allocs
		t0 := time.Now()
		if err := op(ops); err != nil {
			return 0, 0, err
		}
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
		allocsPerOp = float64(readCounters().allocs-before) / float64(ops)
	}
	return median(ns), allocsPerOp, nil
}

// ips returns n distinct addresses under 10.first.0.0/16.
func ips(first byte, n int) []simnet.IP {
	out := make([]simnet.IP, n)
	for i := range out {
		out[i] = simnet.IPv4(10, first, byte(i/250), byte(i%250+1))
	}
	return out
}

func aRecords(addrs []simnet.IP, ttl uint32) []dnswire.RR {
	out := make([]dnswire.RR, len(addrs))
	for i, ip := range addrs {
		out[i] = dnswire.ARecord(core.PoolName, ttl, [4]byte(ip))
	}
	return out
}

// probeSimnetEvent schedules and dispatches timers over a standing
// population of 10k, with delays mixed across the calendar queue's tiers.
func probeSimnetEvent(out map[string]float64) error {
	n := simnet.New(simnet.Config{Seed: 1})
	rng := rand.New(rand.NewSource(7))
	fired := 0
	fn := func() { fired++ }
	delay := func() time.Duration {
		switch rng.Intn(8) {
		case 0, 1, 2:
			return time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		case 3, 4, 5:
			return time.Duration(rng.Int63n(int64(3 * time.Second)))
		default:
			return time.Duration(rng.Int63n(int64(4 * time.Hour)))
		}
	}
	for i := 0; i < 10_000; i++ {
		n.After(delay(), fn)
	}
	const batch = 4096
	ns, allocs, err := timeOps(16, func(k int) error {
		for i := 0; i < k; i++ {
			for j := 0; j < batch; j++ {
				n.After(delay(), fn)
			}
			n.RunFor(5 * time.Second)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if fired == 0 {
		return errors.New("no timer fired")
	}
	out["simnet.event_ns"] = ns / batch
	out["simnet.event_allocs"] = allocs / batch
	return nil
}

// probeSimnetSend sends 48-byte datagrams between two hosts and delivers
// them to a handler.
func probeSimnetSend(out map[string]float64) error {
	n := simnet.New(simnet.Config{Seed: 1})
	a, err := n.AddHost(simnet.IPv4(10, 0, 0, 1))
	if err != nil {
		return err
	}
	b, err := n.AddHost(simnet.IPv4(10, 0, 0, 2))
	if err != nil {
		return err
	}
	got := 0
	if err := b.Listen(ntpwire.Port, func(time.Time, simnet.Meta, []byte) { got++ }); err != nil {
		return err
	}
	to := simnet.Addr{IP: b.IP(), Port: ntpwire.Port}
	payload := make([]byte, ntpwire.PacketSize)
	const batch = 256
	sent := 0
	ns, _, err := timeOps(64, func(k int) error {
		for i := 0; i < k; i++ {
			for j := 0; j < batch; j++ {
				if err := a.SendUDP(40000, to, payload); err != nil {
					return err
				}
			}
			sent += batch
			n.RunFor(50 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if got != sent {
		return fmt.Errorf("delivered %d of %d datagrams", got, sent)
	}
	out["simnet.send_deliver_ns"] = ns / batch
	return nil
}

// probeSimnetFastForward hops over idle 64 s sync intervals, as the
// compressed shift engine does between rounds.
func probeSimnetFastForward(out map[string]float64) error {
	n := simnet.New(simnet.Config{Seed: 1})
	n.After(200*365*24*time.Hour, func() {})
	ns, _, err := timeOps(200_000, func(k int) error {
		for i := 0; i < k; i++ {
			if n.FastForward(64*time.Second) != 0 {
				return errors.New("an event ran inside an idle hop")
			}
		}
		return nil
	})
	out["simnet.fastforward_ns"] = ns
	return err
}

// probeChronosSample draws m=15 of the paper's poisoned 133-server pool
// and evaluates the samples.
func probeChronosSample(out map[string]float64) error {
	rule := chronos.NewRule(chronos.Config{})
	rng := rand.New(rand.NewSource(1))
	pool := make([]time.Duration, 133)
	for i := range pool {
		if i < 89 {
			pool[i] = 20 * time.Millisecond
		} else {
			pool[i] = time.Duration(rng.Int63n(int64(4*time.Millisecond))) - 2*time.Millisecond
		}
	}
	offsets := make([]time.Duration, 0, 15)
	accepted := 0
	ns, _, err := timeOps(50_000, func(k int) error {
		for i := 0; i < k; i++ {
			offsets = offsets[:0]
			for _, j := range rule.SampleIndices(rng, len(pool)) {
				offsets = append(offsets, pool[j])
			}
			if rule.Evaluate(offsets).OK {
				accepted++
			}
		}
		return nil
	})
	if err == nil && accepted == 0 {
		err = errors.New("no sample was accepted")
	}
	out["chronos.sample_evaluate_ns"] = ns
	return err
}

// poolStub answers pool queries from memory: four benign records per
// query until the poisoning hour, then the 89-record forged set.
type poolStub struct {
	benign  []dnswire.RR
	forged  []dnswire.RR
	queries int
}

func (p *poolStub) Lookup(_ string, _ dnswire.Type, cb dnsresolver.Callback) {
	p.queries++
	q := p.queries % 24
	if q >= 12 {
		cb(dnsresolver.Result{RRs: p.forged})
		return
	}
	cb(dnsresolver.Result{RRs: p.benign[4*q : 4*q+4]})
}

// probeChronosBuildPool runs one client's 24-query pool generation.
func probeChronosBuildPool(out map[string]float64) error {
	n := simnet.New(simnet.Config{Seed: 1})
	host, err := n.AddHost(simnet.IPv4(10, 9, 0, 1))
	if err != nil {
		return err
	}
	stub := &poolStub{benign: aRecords(ips(1, 48), 150), forged: aRecords(ips(2, 89), 7*24*3600)}
	var buildErr error
	ns, _, err := timeOps(200, func(k int) error {
		for i := 0; i < k; i++ {
			c := chronos.New(host, &clock.Clock{}, stub, chronos.Config{})
			c.BuildPool(func(err error) {
				buildErr = err
				c.Stop()
			})
			n.RunFor(25 * time.Hour)
			if buildErr != nil {
				return buildErr
			}
			if c.PoolSize() < 89 {
				return fmt.Errorf("pool of %d servers, want at least 89", c.PoolSize())
			}
		}
		return nil
	})
	out["chronos.build_pool_us"] = ns / 1e3
	return err
}

// probeResolverCache reads and writes a pool RRset the way a shared
// resolver serves a burst of clients 30 s after caching it.
func probeResolverCache(out map[string]float64) error {
	c := dnsresolver.NewCache()
	epoch := time.Unix(1591000000, 0)
	rrs := aRecords(ips(1, 4), 150)
	c.Put(epoch, core.PoolName, dnswire.TypeA, rrs)
	at := epoch.Add(30 * time.Second)
	hitNS, hitAllocs, err := timeOps(200_000, func(k int) error {
		for i := 0; i < k; i++ {
			if got, ok := c.Get(at, core.PoolName, dnswire.TypeA); !ok || len(got) != len(rrs) {
				return errors.New("cache miss on a live entry")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	putNS, _, err := timeOps(50_000, func(k int) error {
		for i := 0; i < k; i++ {
			c.Put(epoch, core.PoolName, dnswire.TypeA, rrs)
		}
		return nil
	})
	out["dnsresolver.cache_hit_ns"] = hitNS
	out["dnsresolver.cache_hit_allocs"] = hitAllocs
	out["dnsresolver.cache_put_ns"] = putNS
	return err
}

// probePoolZone answers pool queries one virtual second apart, so the
// rotation window rolls every 150 queries.
func probePoolZone(out map[string]float64) error {
	epoch := time.Unix(1591000000, 0)
	z, err := dnsserver.NewPoolZone(dnsserver.PoolConfig{Name: core.PoolName}, epoch, ips(1, 120))
	if err != nil {
		return err
	}
	q := dnswire.Question{Name: core.PoolName, Type: dnswire.TypeA, Class: dnswire.ClassIN}
	rng := rand.New(rand.NewSource(1))
	ns, _, err := timeOps(50_000, func(k int) error {
		for i := 0; i < k; i++ {
			if a := z.Respond(epoch.Add(time.Duration(i)*time.Second), q, rng); len(a.Answers) != dnswire.BenignPoolResponseRecords {
				return fmt.Errorf("%d answers", len(a.Answers))
			}
		}
		return nil
	})
	out["dnsserver.poolzone_respond_ns"] = ns
	return err
}

// forged89 is the attacker's 89-record response to an EDNS pool query.
func forged89() (*dnswire.Message, error) {
	q := dnswire.NewQuery(1, core.PoolName, dnswire.TypeA)
	q.SetEDNS(dnswire.EthernetMaxPayload)
	return (&attack.ResponseForge{PoolName: core.PoolName, Servers: ips(66, 89)}).Response(q)
}

func dnsRoundTrip(m *dnswire.Message, records int) func(int) error {
	return func(k int) error {
		for i := 0; i < k; i++ {
			buf, err := m.Encode()
			if err != nil {
				return err
			}
			back, err := dnswire.DecodeBorrow(buf)
			if err != nil {
				return err
			}
			if len(back.Answers) != records {
				return fmt.Errorf("decoded %d answers, want %d", len(back.Answers), records)
			}
		}
		return nil
	}
}

// probeDNSWire encodes and decodes the forged 89-record response and a
// benign 4-record pool response.
func probeDNSWire(out map[string]float64) error {
	forged, err := forged89()
	if err != nil {
		return err
	}
	if len(forged.Answers) != 89 {
		return fmt.Errorf("forged %d records, want 89", len(forged.Answers))
	}
	pool := dnswire.NewQuery(2, core.PoolName, dnswire.TypeA).Reply()
	pool.Answers = aRecords(ips(1, 4), 150)
	forgedNS, forgedAllocs, err := timeOps(5_000, dnsRoundTrip(forged, 89))
	if err != nil {
		return err
	}
	poolNS, _, err := timeOps(50_000, dnsRoundTrip(pool, 4))
	out["dnswire.forged89_roundtrip_ns"] = forgedNS
	out["dnswire.allocs_per_roundtrip"] = forgedAllocs
	out["dnswire.pool4_roundtrip_ns"] = poolNS
	return err
}

// probeIPFrag splits the forged response at the 548-byte MTU the
// defragmentation attack forces, then reassembles it.
func probeIPFrag(out map[string]float64) error {
	forged, err := forged89()
	if err != nil {
		return err
	}
	payload, err := forged.Encode()
	if err != nil {
		return err
	}
	key := ipfrag.FlowKey{Src: [4]byte{10, 0, 0, 53}, Dst: [4]byte{10, 0, 0, 1}, Proto: 17, ID: 1}
	r := ipfrag.NewReassembler(ipfrag.Config{})
	now := time.Unix(1591000000, 0)
	ns, allocs, err := timeOps(10_000, func(k int) error {
		for i := 0; i < k; i++ {
			frags, err := ipfrag.Split(key, payload, 548)
			if err != nil {
				return err
			}
			done := false
			for _, f := range frags {
				var got []byte
				if got, done = r.Insert(now, f); done && len(got) != len(payload) {
					return fmt.Errorf("reassembled %d of %d bytes", len(got), len(payload))
				}
			}
			if !done || len(frags) < 2 {
				return fmt.Errorf("%d fragments did not reassemble", len(frags))
			}
		}
		return nil
	})
	out["ipfrag.split_reassemble_ns"] = ns
	out["ipfrag.allocs_per_datagram"] = allocs
	return err
}

// probeCoreScenario builds and runs one defragmentation-poisoning trial.
func probeCoreScenario(out map[string]float64) error {
	ns, _, err := timeOps(4, func(k int) error {
		for i := 0; i < k; i++ {
			sc, err := core.NewScenario(core.Config{Seed: 1, Mechanism: core.Defrag, PoisonQuery: 12})
			if err != nil {
				return err
			}
			if _, err := sc.Run(); err != nil {
				return err
			}
		}
		return nil
	})
	out["core.scenario_ms"] = ns / 1e6
	return err
}

// probeNTPWire encodes and decodes a 48-byte client packet.
func probeNTPWire(out map[string]float64) error {
	p := ntpwire.NewClientPacket(time.Unix(1591000000, 0))
	buf := make([]byte, 0, 128)
	var q ntpwire.Packet
	ns, allocs, err := timeOps(500_000, func(k int) error {
		for i := 0; i < k; i++ {
			buf = p.AppendEncode(buf[:0])
			if err := ntpwire.DecodeInto(&q, buf); err != nil {
				return err
			}
		}
		return nil
	})
	out["ntpwire.roundtrip_ns"] = ns
	out["ntpwire.allocs"] = allocs
	return err
}

// macKey returns a key table holding one key of algo and a 48-byte client
// packet sealed under it.
func macKey(algo ntpauth.Algorithm) (*ntpauth.KeyTable, []byte, error) {
	key := ntpauth.Key{ID: 9, Algo: algo, Secret: []byte("chronosbench-probe-key")}
	tbl, err := ntpauth.NewKeyTable(key)
	if err != nil {
		return nil, nil, err
	}
	raw := ntpwire.NewClientPacket(time.Unix(1591000000, 0)).Encode()
	sealed, ok := ntpauth.NewMACer(tbl).AppendMAC(raw, key.ID, raw)
	if !ok {
		return nil, nil, errors.New("AppendMAC failed")
	}
	return tbl, sealed, nil
}

func serveLoop(r *ntpserver.Responder, raw []byte) func(int) error {
	var st ntpserver.ServeState
	out := make([]byte, 0, 256)
	from := simnet.Addr{IP: simnet.IPv4(10, 0, 0, 1), Port: 40000}
	now := time.Unix(1591000000, 0)
	return func(k int) error {
		for i := 0; i < k; i++ {
			var ok bool
			if out, ok = r.ServeDatagram(out[:0], now, raw, &st, from); !ok {
				return errors.New("request not served")
			}
		}
		return nil
	}
}

// probeNTPServe serves a plain request and a SHA-256-MAC request through
// the transport-independent serve path.
func probeNTPServe(out map[string]float64) error {
	plain := ntpwire.NewClientPacket(time.Unix(1591000000, 0)).Encode()
	plainNS, _, err := timeOps(200_000, serveLoop(ntpserver.NewResponder(ntpserver.Config{}), plain))
	if err != nil {
		return err
	}
	tbl, sealed, err := macKey(ntpauth.AlgoSHA256)
	if err != nil {
		return err
	}
	auth := &ntpauth.ServerAuth{Keys: tbl, Require: true}
	macNS, _, err := timeOps(100_000, serveLoop(ntpserver.NewResponder(ntpserver.Config{Auth: auth}), sealed))
	out["ntpserver.serve_plain_ns"] = plainNS
	out["ntpserver.serve_mac_sha256_ns"] = macNS
	return err
}

// probeMACVerify verifies SHA-256 and MD5 request MACs.
func probeMACVerify(out map[string]float64) error {
	for _, c := range []struct {
		algo ntpauth.Algorithm
		name string
	}{{ntpauth.AlgoSHA256, "ntpauth.mac_sha256_verify_ns"}, {ntpauth.AlgoMD5, "ntpauth.mac_md5_verify_ns"}} {
		tbl, sealed, err := macKey(c.algo)
		if err != nil {
			return err
		}
		m := ntpauth.NewMACer(tbl)
		msg, trailer := sealed[:ntpwire.PacketSize], sealed[ntpwire.PacketSize:]
		ns, _, err := timeOps(200_000, func(k int) error {
			for i := 0; i < k; i++ {
				if _, ok := m.Verify(msg, trailer); !ok {
					return errors.New("MAC did not verify")
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		out[c.name] = ns
	}
	return nil
}

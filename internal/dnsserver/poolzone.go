package dnsserver

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// The pool zone's answers: dnswire.BenignPoolResponseRecords addresses,
// each with a poolTTL-second TTL, drawn afresh once per rotation window
// of the same length. Every query inside one window sees the same
// answer. This mirrors real pool behaviour closely enough and —
// crucially for the defragmentation attack — lets an attacker probe the
// nameserver, learn the exact bytes of the current response, and plant a
// checksum-compensated spoofed fragment before the victim resolver
// queries inside the same window.
const (
	poolTTL    = 150
	poolWindow = poolTTL * time.Second
)

// PoolConfig parameterises a PoolZone.
type PoolConfig struct {
	Name string // pool domain, e.g. "pool.ntp.org"
}

// ErrEmptyPool is returned when constructing a pool with no servers.
var ErrEmptyPool = errors.New("dnsserver: empty pool inventory")

// PoolZone answers A queries for a pool domain with a rotating subset of a
// large NTP-server inventory, like pool.ntp.org.
type PoolZone struct {
	cfg       PoolConfig
	inventory []simnet.IP
	epoch     time.Time

	// Memoized windowed selection. Every query inside one window
	// sees the same subset by construction, so the window-seeded draw (a
	// full 607-word RNG seeding per call) and its A-record set are
	// computed once per window and replayed for the rest of it.
	memoWindow int64
	memoIPs    []simnet.IP
	memoRRs    []dnswire.RR
	memoValid  bool
	permIdx    []int32 // scratch for the cached window permutation prefix
}

// permKey identifies a windowed draw: the window-derived seed plus the
// permutation shape. The drawn prefix is fully determined by it.
type permKey struct {
	window int64
	n, k   int
}

// permCache is a process-wide direct-mapped cache of windowed
// permutation prefixes. Shard networks in a fleet run, and the scenarios
// of a reproduction, are queried for the same rotation windows over the
// same inventory sizes, so the window-seeded rand.NewSource runs once per
// distinct window instead of once per network per window. Entries are
// pure functions of their key, so a hit is bit-identical to a recompute
// and collisions (which overwrite) only cost time. It pays on
// chronosbench (2 vCPUs): with it switched off, repro ran a third slower
// (about 6.9 vs 10.4 tables/s in every pair) and fleet peaked 9–10%
// higher in RSS.
var permCache struct {
	sync.Mutex
	entries [4096]struct {
		key   permKey
		valid bool
		idx   []int32
	}
}

// permSlot is key's entry in permCache: the window plus a hash of the
// shape, so the consecutive windows a run rolls through occupy
// consecutive slots and never evict each other.
func permSlot(key permKey) int {
	h := (uint64(key.n)<<32 | uint64(key.k)) * 0x9E3779B97F4A7C15
	return int((uint64(key.window) + h>>32) & uint64(len(permCache.entries)-1))
}

// windowPerm returns the first k indices of the window-seeded permutation
// of n elements, appending into dst[:0].
func windowPerm(window int64, n, k int, dst []int32) []int32 {
	key := permKey{window: window, n: n, k: k}
	slot := permSlot(key)
	permCache.Lock()
	if e := &permCache.entries[slot]; e.valid && e.key == key {
		dst = append(dst[:0], e.idx...)
		permCache.Unlock()
		return dst
	}
	permCache.Unlock()
	wrng := rand.New(rand.NewSource(window ^ 0x5DEECE66D))
	idx := make([]int32, k)
	for i, j := range wrng.Perm(n)[:k] {
		idx[i] = int32(j)
	}
	permCache.Lock()
	e := &permCache.entries[slot]
	e.key, e.valid, e.idx = key, true, idx
	permCache.Unlock()
	return append(dst[:0], idx...)
}

var _ Responder = (*PoolZone)(nil)

// NewPoolZone builds a pool zone over inventory. The epoch anchors the
// rotation windows.
func NewPoolZone(cfg PoolConfig, epoch time.Time, inventory []simnet.IP) (*PoolZone, error) {
	if len(inventory) == 0 {
		return nil, ErrEmptyPool
	}
	cfg.Name = dnswire.NormalizeName(cfg.Name)
	inv := make([]simnet.IP, len(inventory))
	copy(inv, inventory)
	return &PoolZone{cfg: cfg, inventory: inv, epoch: epoch}, nil
}

// Respond implements Responder.
func (p *PoolZone) Respond(now time.Time, q dnswire.Question, rng *rand.Rand) Answer {
	if dnswire.NormalizeName(q.Name) != p.cfg.Name {
		return Answer{RCode: dnswire.RCodeNXDomain}
	}
	if q.Type != dnswire.TypeA {
		return Answer{} // NOERROR, no data
	}
	p.refreshWindow(now)
	// The memoized record set is shared across every query of the
	// window; handlers treat answer sections as read-only.
	return Answer{Answers: p.memoRRs}
}

// refreshWindow recomputes the memoized windowed selection if now falls in
// a different rotation window than the cached one.
func (p *PoolZone) refreshWindow(now time.Time) {
	window := int64(now.Sub(p.epoch) / poolWindow)
	if p.memoValid && p.memoWindow == window {
		return
	}
	k := min(dnswire.BenignPoolResponseRecords, len(p.inventory))
	// A window-seeded RNG gives every query in the window the same
	// deterministic subset. The drawn index prefix is a pure function of
	// (window, inventory size, k), so it is shared process-wide: at fleet
	// scale a hundred shard networks roll into the same window together,
	// and only the first pays the 607-word RNG seeding.
	p.permIdx = windowPerm(window, len(p.inventory), k, p.permIdx)
	p.memoIPs = p.memoIPs[:0]
	for _, j := range p.permIdx {
		p.memoIPs = append(p.memoIPs, p.inventory[j])
	}
	p.memoRRs = p.memoRRs[:0]
	for _, ip := range p.memoIPs {
		p.memoRRs = append(p.memoRRs, dnswire.ARecord(p.cfg.Name, poolTTL, [4]byte(ip)))
	}
	p.memoWindow, p.memoValid = window, true
}

// Select returns the addresses the pool would answer with at time now.
// Exported so attack code can "probe" the response without the network
// round-trip in analytical experiments. The returned slice is the
// memoized per-window selection — treat it as read-only and consume it
// before the window rolls over.
func (p *PoolZone) Select(now time.Time) []simnet.IP {
	p.refreshWindow(now)
	return p.memoIPs
}

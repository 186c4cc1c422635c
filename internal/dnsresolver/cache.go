package dnsresolver

import (
	"time"

	"chronosntp/internal/dnswire"
)

// cacheKey identifies an RRset: a normalized name and a type.
type cacheKey struct {
	name  string
	qtype dnswire.Type
}

type cacheEntry struct {
	rrs      []dnswire.RR // TTLs as received
	aged     []dnswire.RR // per-entry scratch for the TTL-decremented view
	agedBy   uint32       // seconds the scratch view was aged by; 0 = stale
	gen      uint64       // the RRset's number, unique within its cache
	storedAt int64        // Unix nanoseconds
	expiry   int64        // Unix nanoseconds
}

// Cache is a TTL-respecting DNS cache. It is the attack target: one
// poisoned RRset with a long TTL persists across all of Chronos' hourly
// pool queries.
//
// Times are kept as Unix nanoseconds; the exported methods convert the
// time.Time they take once per call. Every RRset the cache stores gets a
// generation number from a per-cache counter, so two hits with the same
// number carry the same records in the same order, differing at most in
// their aged TTLs. The cache keeps the entry its last hit returned and
// serves a hit on the same key without a map lookup; every Put, and every
// delete on expiry, drops that hot entry.
//
// A hit's records are borrowed, never copied: the stored records until a
// whole second has passed since the Put, then a per-entry scratch view
// that is re-aged in place whenever the age in seconds changes. Callers
// consume them, or copy records out, within the event that read them.
type Cache struct {
	entries  map[cacheKey]*cacheEntry
	negative map[cacheKey]negativeEntry
	gen      uint64      // number of the last RRset stored
	hot      *cacheEntry // the entry the last hit returned, or nil
	hotKey   cacheKey    // hot's key
}

// negativeEntry is a cached negative answer: its kind, ErrNXDomain or
// ErrNoData, until a Unix nanosecond.
type negativeEntry struct {
	err    error
	expiry int64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		entries:  make(map[cacheKey]*cacheEntry),
		negative: make(map[cacheKey]negativeEntry),
	}
}

// Put stores rrs as the RRset for (name, qtype). TTLs are taken from the
// records; the entry expires when the smallest TTL does.
func (c *Cache) Put(now time.Time, name string, qtype dnswire.Type, rrs []dnswire.RR) {
	c.put(now.UnixNano(), cacheKey{name: dnswire.NormalizeName(name), qtype: qtype}, rrs)
}

// put stores rrs under k at now (Unix nanoseconds) and returns the
// generation it numbered them with, or 0 when rrs is empty and nothing
// was stored.
func (c *Cache) put(now int64, k cacheKey, rrs []dnswire.RR) uint64 {
	if len(rrs) == 0 {
		return 0
	}
	minTTL := rrs[0].TTL
	for _, rr := range rrs[1:] {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	cp := make([]dnswire.RR, len(rrs))
	copy(cp, rrs)
	c.gen++
	c.entries[k] = &cacheEntry{
		rrs:      cp,
		gen:      c.gen,
		storedAt: now,
		expiry:   now + int64(minTTL)*int64(time.Second),
	}
	delete(c.negative, k)
	c.hot = nil
	return c.gen
}

// PutNegative records for ttl that (name, qtype) has no records: err is
// ErrNXDomain for a name that does not exist, ErrNoData for one without.
func (c *Cache) PutNegative(now time.Time, name string, qtype dnswire.Type, err error, ttl time.Duration) {
	c.negative[cacheKey{name: dnswire.NormalizeName(name), qtype: qtype}] = negativeEntry{err: err, expiry: now.UnixNano() + int64(ttl)}
}

// Get returns the unexpired RRset for (name, qtype) with TTLs decremented
// by the time spent in cache.
//
// The returned slice is borrowed from the entry: callers must consume it
// (or copy records out) before the entry is next written or aged again,
// i.e. within the same simulation event. When no whole second has elapsed
// since storage the stored records are returned directly; otherwise the
// TTL-decremented view is built in a per-entry scratch slice, so two
// simultaneously live Gets of *different* entries (the referral walk holds
// an NS set while fetching glue A sets) never clobber each other.
func (c *Cache) Get(now time.Time, name string, qtype dnswire.Type) ([]dnswire.RR, bool) {
	rrs, _, ok := c.get(now.UnixNano(), cacheKey{name: dnswire.NormalizeName(name), qtype: qtype})
	return rrs, ok
}

// get is Get for a normalized key at now (Unix nanoseconds). It also
// returns the RRset's generation, which is never 0 on a hit.
func (c *Cache) get(now int64, k cacheKey) ([]dnswire.RR, uint64, bool) {
	e := c.hot
	if e == nil || k != c.hotKey {
		var ok bool
		if e, ok = c.entries[k]; !ok {
			return nil, 0, false
		}
	}
	if now >= e.expiry {
		delete(c.entries, k)
		c.hot = nil
		return nil, 0, false
	}
	c.hot, c.hotKey = e, k
	aged := uint32((now - e.storedAt) / int64(time.Second))
	if aged == 0 {
		return e.rrs, e.gen, true
	}
	if e.agedBy == aged {
		// The scratch view is already decremented by this many seconds —
		// the common case at fleet scale, where bursts of clients hit the
		// same entry within one virtual second. Skip the copy.
		return e.aged, e.gen, true
	}
	if cap(e.aged) < len(e.rrs) {
		e.aged = make([]dnswire.RR, len(e.rrs))
	}
	e.aged = e.aged[:len(e.rrs)]
	// Bulk-copy the records, then patch TTLs in place: one memmove beats
	// a per-record struct copy for the wide RR type.
	copy(e.aged, e.rrs)
	for i := range e.aged {
		if e.aged[i].TTL > aged {
			e.aged[i].TTL -= aged
		} else {
			e.aged[i].TTL = 0
		}
	}
	e.agedBy = aged
	return e.aged, e.gen, true
}

// getNegative returns the kind of negative answer cached for k at now
// (Unix nanoseconds), as PutNegative took it, or nil when none is.
func (c *Cache) getNegative(now int64, k cacheKey) error {
	e, ok := c.negative[k]
	if ok && now >= e.expiry {
		delete(c.negative, k)
		return nil
	}
	return e.err // nil when k has no entry
}

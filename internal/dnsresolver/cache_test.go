package dnsresolver

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"chronosntp/internal/dnswire"
)

// cacheModel is the cache as plain maps and time.Time: what Cache must
// behave like. Each stored RRset carries the model's version, counted
// across all keys.
type cacheModel struct {
	entries  map[cacheKey]*modelEntry
	negative map[cacheKey]modelNegative
	versions int
}

// modelNegative is a negative answer of kind err until expiry.
type modelNegative struct {
	err    error
	expiry time.Time
}

type modelEntry struct {
	rrs              []dnswire.RR
	storedAt, expiry time.Time
	version          int
}

func modelKey(name string, qtype dnswire.Type) cacheKey {
	return cacheKey{name: strings.ToLower(strings.TrimSuffix(name, ".")), qtype: qtype}
}

func (m *cacheModel) put(now time.Time, k cacheKey, rrs []dnswire.RR) {
	if len(rrs) == 0 {
		return
	}
	minTTL := rrs[0].TTL
	for _, rr := range rrs {
		minTTL = min(minTTL, rr.TTL)
	}
	m.versions++
	m.entries[k] = &modelEntry{
		rrs:      append([]dnswire.RR(nil), rrs...),
		storedAt: now,
		expiry:   now.Add(time.Duration(minTTL) * time.Second),
		version:  m.versions,
	}
	delete(m.negative, k)
}

// get returns the live entry for k and its records aged by whole seconds
// spent in the cache; it forgets an expired entry, as a Get does.
func (m *cacheModel) get(now time.Time, k cacheKey) (*modelEntry, []dnswire.RR) {
	e, ok := m.entries[k]
	if !ok {
		return nil, nil
	}
	if !now.Before(e.expiry) {
		delete(m.entries, k)
		return nil, nil
	}
	aged := uint32(now.Sub(e.storedAt) / time.Second)
	out := append([]dnswire.RR(nil), e.rrs...)
	for i := range out {
		out[i].TTL -= min(out[i].TTL, aged)
	}
	return e, out
}

func (m *cacheModel) getNegative(now time.Time, k cacheKey) error {
	e, ok := m.negative[k]
	if !ok {
		return nil
	}
	if !now.Before(e.expiry) {
		delete(m.negative, k)
		return nil
	}
	return e.err
}

func (m *cacheModel) dump(now time.Time) []dnswire.RR {
	var keys []cacheKey
	for k, e := range m.entries {
		if now.Before(e.expiry) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].qtype < keys[j].qtype
	})
	var out []dnswire.RR
	for _, k := range keys {
		_, rrs := m.get(now, k)
		out = append(out, rrs...)
	}
	return out
}

// sameRRs compares record lists field by field; nil and empty are equal.
func sameRRs(a, b []dnswire.RR) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Type != b[i].Type || a[i].TTL != b[i].TTL || a[i].A != b[i].A {
			return false
		}
	}
	return true
}

// fuzzNames are the names cache operations use: three RRsets' worth, each
// written with case and trailing-dot variants.
var fuzzNames = []string{
	"pool.ntp.org", "POOL.ntp.org.", "Pool.NTP.Org", "pool.ntp.org.",
	"ns1.ntp.org", "NS1.NTP.ORG.", "a.example", "A.example.",
}

// fuzzTTLs are the TTLs records are built from, 0 included.
var fuzzTTLs = []uint32{0, 1, 2, 30, 150, 3600, 7 * 86400}

// FuzzCache decodes bytes into a sequence of Put, Get, PutNegative,
// GetNegative, Flush, Purge and Dump calls over a few names and two
// types, with the clock advancing by 0 ns, by less than a second, by whole
// seconds or past every expiry between calls. Every answer must match the
// reference model: the same records with the same aged TTLs, the same
// negative answers of the same kind (NXDOMAIN or NODATA), Len and Dump. A hit carries a nonzero generation, and
// two hits share one exactly when they read the same Put. The hot entry is
// always the map's entry for its key.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0x00, 0, 4, 3, 0x01, 0, 0x11, 0, 10, 0x01, 1, 0x25, 3, 200, 0x01, 2})
	f.Add([]byte{0x00, 2, 89, 5, 0x0b, 2, 0x15, 9, 0x01, 3, 0x00, 3, 4, 1, 0x01, 2, 0x04, 1, 0x06, 0x1d, 0x05, 0x06})
	f.Add([]byte{0x02, 6, 4, 0x03, 7, 0x00, 6, 0, 0, 0x01, 6, 0x13, 6, 0x22, 0x01, 7, 0x04, 6, 0x01, 6, 0x05})
	// A hit, then a second Put of the same RRset's key, then a hit.
	f.Add([]byte{0x00, 0, 4, 3, 0x07, 0, 0x00, 1, 5, 9, 0x07, 2})
	// A hit, then one on the same key 5 s later, past its 1 s TTL.
	f.Add([]byte{0x00, 0, 4, 1, 0x07, 0, 0x17, 5, 0})
	// A hit, then a Flush of its key.
	f.Add([]byte{0x00, 4, 4, 3, 0x07, 5, 0x04, 4, 0x07, 4})
	// A NODATA answer, read, then replaced by an NXDOMAIN one and read.
	f.Add([]byte{0x42, 0, 40, 0x03, 1, 0x02, 0, 40, 0x03, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		c := NewCache()
		m := &cacheModel{entries: make(map[cacheKey]*modelEntry), negative: make(map[cacheKey]modelNegative)}
		start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
		now := start
		// A generation must name one RRset the model stored, and that
		// RRset one generation.
		type stored struct {
			k       cacheKey
			version int
		}
		owner := make(map[uint64]stored)
		gen := make(map[stored]uint64)
		for step := 0; len(data) > 0; step++ {
			op := next()
			switch op >> 3 & 3 {
			case 1:
				now = now.Add(time.Duration(next()) * 3900 * time.Microsecond)
			case 2:
				now = now.Add(time.Duration(next()) * time.Second)
			case 3:
				now = now.Add(7*86400*time.Second + time.Duration(next())*time.Second)
			}
			name := fuzzNames[int(next())%len(fuzzNames)]
			qtype := dnswire.TypeA
			if op&0x20 != 0 {
				qtype = dnswire.TypeNS
			}
			k := modelKey(name, qtype)
			where := func() string {
				return fmt.Sprintf("step %d (op %#x, %q/%v at +%v)", step, op, name, qtype, now.Sub(start))
			}
			switch op & 7 {
			case 0: // Put
				n, shape := int(next())%91, next()
				rrs := make([]dnswire.RR, n)
				for i := range rrs {
					ttl := fuzzTTLs[(int(shape)+i*int(shape>>4|1))%len(fuzzTTLs)]
					rrs[i] = dnswire.ARecord(name, ttl, [4]byte{10, shape, byte(i), byte(step)})
				}
				c.Put(now, name, qtype, rrs)
				m.put(now, k, rrs)
			case 1, 7: // Get; op 7 reads the generation too
				e, want := m.get(now, k)
				var got []dnswire.RR
				var ok bool
				if op&7 == 1 {
					got, ok = c.Get(now, name, qtype)
				} else {
					var g uint64
					got, g, ok = c.get(now.UnixNano(), k)
					if ok && e != nil {
						st := stored{k, e.version}
						if g == 0 {
							t.Fatalf("%s: hit with generation 0", where())
						}
						if prev, seen := owner[g]; seen && prev != st {
							t.Fatalf("%s: generation %d names RRsets %v and %v", where(), g, prev, st)
						}
						if prev, seen := gen[st]; seen && prev != g {
							t.Fatalf("%s: RRset %v read as generations %d and %d", where(), st, prev, g)
						}
						owner[g], gen[st] = st, g
					}
				}
				if ok != (e != nil) || !sameRRs(got, want) {
					t.Fatalf("%s: Get = %v, %v; model %v, %v", where(), got, ok, want, e != nil)
				}
			case 2: // PutNegative; op bit 6 makes it NODATA
				kind := ErrNXDomain
				if op&0x40 != 0 {
					kind = ErrNoData
				}
				ttl := time.Duration(next()) * 250 * time.Millisecond
				c.PutNegative(now, name, qtype, kind, ttl)
				m.negative[k] = modelNegative{err: kind, expiry: now.Add(ttl)}
			case 3: // GetNegative
				if got, want := c.GetNegative(now, name, qtype), m.getNegative(now, k); got != want {
					t.Fatalf("%s: GetNegative = %v, model %v", where(), got, want)
				}
			case 4: // Flush
				_, want := m.entries[k]
				delete(m.entries, k)
				delete(m.negative, k)
				if got := c.Flush(name, qtype); got != want {
					t.Fatalf("%s: Flush = %v, model %v", where(), got, want)
				}
			case 5: // Purge
				c.Purge(now)
				for k, e := range m.entries {
					if !now.Before(e.expiry) {
						delete(m.entries, k)
					}
				}
				for k, e := range m.negative {
					if !now.Before(e.expiry) {
						delete(m.negative, k)
					}
				}
			case 6: // Dump
				if got, want := c.Dump(now), m.dump(now); !sameRRs(got, want) {
					t.Fatalf("%s: Dump = %v, model %v", where(), got, want)
				}
			}
			if c.Len() != len(m.entries) {
				t.Fatalf("%s: Len = %d, model %d", where(), c.Len(), len(m.entries))
			}
			if c.hot != nil && c.entries[c.hotKey] != c.hot {
				t.Fatalf("%s: the hot entry for %v is not the cached one", where(), c.hotKey)
			}
		}
	})
}

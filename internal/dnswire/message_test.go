package dnswire

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalizeName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Pool.NTP.org.", "pool.ntp.org"},
		{"pool.ntp.org", "pool.ntp.org"},
		{".", ""},
		{"", ""},
	}
	for _, tt := range tests {
		if got := NormalizeName(tt.in); got != tt.want {
			t.Errorf("NormalizeName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestInZone(t *testing.T) {
	tests := []struct {
		name, zone string
		want       bool
	}{
		{"pool.ntp.org", "ntp.org", true},
		{"pool.ntp.org", "pool.ntp.org", true},
		{"ntp.org", "pool.ntp.org", false},
		{"evilntp.org", "ntp.org", false}, // suffix without dot boundary
		{"anything.example", "", true},    // root zone contains everything
	}
	for _, tt := range tests {
		if got := InZone(tt.name, tt.zone); got != tt.want {
			t.Errorf("InZone(%q, %q) = %v, want %v", tt.name, tt.zone, got, tt.want)
		}
	}
}

func TestEncodedNameLen(t *testing.T) {
	tests := []struct {
		name string
		want int
	}{
		{"", 1},              // root
		{"org", 5},           // 1+3 +1
		{"ntp.org", 9},       // 1+3 +1+3 +1
		{"pool.ntp.org", 14}, // 1+4 +1+3 +1+3 +1
	}
	for _, tt := range tests {
		got, err := EncodedNameLen(tt.name)
		if err != nil {
			t.Fatalf("%q: %v", tt.name, err)
		}
		if got != tt.want {
			t.Errorf("EncodedNameLen(%q) = %d, want %d", tt.name, got, tt.want)
		}
	}
	if _, err := EncodedNameLen(strings.Repeat("a", 64) + ".org"); err == nil {
		t.Error("expected ErrLabelTooLong")
	}
	long := strings.Repeat("abcdefgh.", 40) + "org"
	if _, err := EncodedNameLen(long); err == nil {
		t.Error("expected ErrNameTooLong")
	}
	if _, err := EncodedNameLen("a..b"); err == nil {
		t.Error("expected ErrEmptyLabel")
	}
}

func sampleMessage() *Message {
	m := NewQuery(0x1234, "pool.ntp.org", TypeA)
	r := m.Reply()
	r.Authoritative = true
	r.RecursionAvailable = true
	r.Answers = []RR{
		ARecord("pool.ntp.org", 150, [4]byte{192, 0, 2, 1}),
		ARecord("pool.ntp.org", 150, [4]byte{192, 0, 2, 2}),
		CNAMERecord("alias.pool.ntp.org", 300, "pool.ntp.org"),
	}
	r.Authority = []RR{
		NSRecord("ntp.org", 3600, "ns1.ntp.org"),
		{Name: "ntp.org", Type: TypeSOA, Class: ClassIN, TTL: 3600, SOA: &SOAData{
			MName: "ns1.ntp.org", RName: "hostmaster.ntp.org",
			Serial: 2020060100, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		}},
	}
	r.Additional = []RR{
		ARecord("ns1.ntp.org", 3600, [4]byte{198, 51, 100, 53}),
		TXTRecord("info.ntp.org", 60, "hello", "world"),
	}
	r.SetEDNS(4096)
	return r
}

func TestRoundTrip(t *testing.T) {
	m := sampleMessage()
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestRoundTripNoCompression(t *testing.T) {
	m := sampleMessage()
	b, err := refEncode(m, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Error("uncompressed round trip mismatch")
	}
	compressed, _ := m.Encode()
	if len(compressed) >= len(b) {
		t.Errorf("compression did not shrink message: %d >= %d", len(compressed), len(b))
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	m := &Message{
		ID: 7, Response: true, Opcode: 2, Authoritative: true, Truncated: true,
		RecursionDesired: true, RecursionAvailable: true, RCode: RCodeNXDomain,
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("flags mismatch: %+v vs %+v", got, m)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short message accepted")
	}
	m := sampleMessage()
	b, _ := m.Encode()
	if _, err := Decode(b[:len(b)-3]); err == nil {
		t.Error("truncated message accepted")
	}
	// Claimed question count with no body.
	hdr := make([]byte, 12)
	hdr[5] = 1
	if _, err := Decode(hdr); err == nil {
		t.Error("missing question accepted")
	}
}

func TestDecodeToleratesTrailingBytes(t *testing.T) {
	// The defragmentation attack pads spoofed response tails with
	// checksum-compensation bytes after the last counted record; parsers
	// must (and ours does) ignore them.
	m := sampleMessage()
	b, _ := m.Encode()
	b = append(b, 0xDE, 0xAD)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Error("message with trailing bytes decoded differently")
	}
}

func TestCompressionPointerLoopRejected(t *testing.T) {
	// Craft a message whose qname is a pointer to itself.
	b := make([]byte, 16)
	b[5] = 1     // QDCOUNT=1
	b[12] = 0xC0 // pointer ...
	b[13] = 12   // ... to itself
	if _, err := Decode(b); err == nil {
		t.Error("self-pointer accepted")
	}
}

// TestPointerToReadNameKeepsHopLimit holds decode's reuse of a name it has
// read to the pointer walk it stands in for: a pointer to a name read in
// 64 hops is a 65th hop and fails, and one hop fewer decodes.
func TestPointerToReadNameKeepsHopLimit(t *testing.T) {
	// The question is "a" at 12. Answer 1's RDATA is a chain of pointers,
	// the first to the question and each later one to the one before;
	// answer 2 is "b" plus a pointer to the chain's last, and answer 3 a
	// pointer to answer 2's name.
	build := func(chain int) []byte {
		b := []byte{0, 1, 0x80, 0, 0, 1, 0, 3, 0, 0, 0, 0, 1, 'a', 0, 0, 1, 0, 1}
		rr := func(name, rdata []byte) {
			b = append(b, name...)
			b = append(b, 0, 99, 0, 1, 0, 0, 0, 60, 0, byte(len(rdata)))
			b = append(b, rdata...)
		}
		var ptrs []byte
		for i, at := 0, 12; i < chain; i++ {
			ptrs = append(ptrs, 0xC0, byte(at))
			at = len(b) + 12 + 2*i // where this pointer will sit
		}
		rr([]byte{0xC0, 12}, ptrs)
		last := len(b) - 2
		named := len(b)
		rr([]byte{1, 'b', 0xC0, byte(last)}, nil)
		rr([]byte{0xC0, byte(named)}, nil)
		return b
	}
	// Answer 2's name takes chain+1 hops, answer 3's one more.
	m, err := Decode(build(62))
	if err != nil {
		t.Fatalf("names read in 63 and 64 hops rejected: %v", err)
	}
	if m.Answers[1].Name != "b.a" || m.Answers[2].Name != "b.a" {
		t.Fatalf("names %q and %q, want b.a", m.Answers[1].Name, m.Answers[2].Name)
	}
	if _, err := Decode(build(63)); !errors.Is(err, ErrNameLoop) {
		t.Fatalf("a name read in 65 hops: err %v, want ErrNameLoop", err)
	}
}

func TestReservedLabelTypeRejected(t *testing.T) {
	b := make([]byte, 18)
	b[5] = 1
	b[12] = 0x80 // reserved label type
	if _, err := Decode(b); err == nil {
		t.Error("reserved label type accepted")
	}
}

func TestCaseInsensitiveDecode(t *testing.T) {
	m := NewQuery(1, "POOL.NTP.ORG", TypeA)
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "pool.ntp.org" {
		t.Errorf("decoded qname %q", got.Questions[0].Name)
	}
}

func TestEDNS(t *testing.T) {
	m := NewQuery(1, "pool.ntp.org", TypeA)
	if _, ok := m.EDNSSize(); ok {
		t.Error("EDNS present on fresh query")
	}
	if m.MaxPayload() != ClassicMaxUDP {
		t.Errorf("MaxPayload = %d, want 512", m.MaxPayload())
	}
	m.SetEDNS(1472)
	if sz, ok := m.EDNSSize(); !ok || sz != 1472 {
		t.Errorf("EDNSSize = %d, %v", sz, ok)
	}
	if m.MaxPayload() != 1472 {
		t.Errorf("MaxPayload = %d, want 1472", m.MaxPayload())
	}
	m.SetEDNS(400) // below the classic floor
	if m.MaxPayload() != ClassicMaxUDP {
		t.Errorf("MaxPayload = %d, want floored 512", m.MaxPayload())
	}
	// SetEDNS updates in place rather than duplicating.
	count := 0
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			count++
		}
	}
	if count != 1 {
		t.Errorf("OPT records = %d, want 1", count)
	}
}

func TestReplyMirrorsQuery(t *testing.T) {
	q := NewQuery(42, "pool.ntp.org", TypeA)
	r := q.Reply()
	if !r.Response || r.ID != 42 || !r.RecursionDesired {
		t.Errorf("bad reply skeleton: %+v", r)
	}
	if len(r.Questions) != 1 || r.Questions[0] != q.Questions[0] {
		t.Error("reply does not mirror question")
	}
}

func TestTXTChunkTooLong(t *testing.T) {
	m := &Message{Answers: []RR{TXTRecord("a.example", 60, strings.Repeat("x", 256))}}
	if _, err := m.Encode(); err == nil {
		t.Error("oversized TXT chunk accepted")
	}
}

func TestSOANilRejected(t *testing.T) {
	m := &Message{Answers: []RR{{Name: "a.example", Type: TypeSOA, Class: ClassIN}}}
	if _, err := m.Encode(); err == nil {
		t.Error("nil SOA accepted")
	}
}

func TestUnknownTypeRoundTripsRaw(t *testing.T) {
	m := &Message{Answers: []RR{{
		Name: "a.example", Type: Type(99), Class: ClassIN, TTL: 5, Raw: []byte{1, 2, 3, 4, 5},
	}}}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Error("raw rdata round trip mismatch")
	}
}

func TestTypeString(t *testing.T) {
	for _, tt := range []struct {
		typ  Type
		want string
	}{
		{TypeA, "A"}, {TypeNS, "NS"}, {TypeCNAME, "CNAME"}, {TypeSOA, "SOA"},
		{TypePTR, "PTR"}, {TypeMX, "MX"}, {TypeTXT, "TXT"}, {TypeAAAA, "AAAA"},
		{TypeOPT, "OPT"}, {Type(250), "TYPE250"},
	} {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.typ, got, tt.want)
		}
	}
}

func TestMaxARecordsReproducesPaperFigures(t *testing.T) {
	// §IV: "up to 89 for a single non-fragmented DNS response".
	got, err := MaxARecords("pool.ntp.org", EthernetMaxPayload, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != 89 {
		t.Errorf("MaxARecords(pool.ntp.org, 1472, edns) = %d, want 89", got)
	}
	// Classic 512-byte responses hold far fewer.
	classic, err := MaxARecords("pool.ntp.org", ClassicMaxUDP, false)
	if err != nil {
		t.Fatal(err)
	}
	if classic != 30 {
		t.Errorf("MaxARecords(512, no edns) = %d, want 30", classic)
	}
	// The geographic pool names clients actually query behave the same.
	got2, err := MaxARecords("2.pool.ntp.org", EthernetMaxPayload, true)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 89 {
		t.Errorf("MaxARecords(2.pool.ntp.org) = %d, want 89", got2)
	}
}

func TestMaxARecordsMatchesRealEncoding(t *testing.T) {
	// The closed-form count must agree with actually encoding a message.
	for _, payload := range []int{512, 1232, 1472, 4096} {
		for _, edns := range []bool{false, true} {
			k, err := MaxARecords("pool.ntp.org", payload, edns)
			if err != nil {
				t.Fatal(err)
			}
			build := func(count int) int {
				q := NewQuery(1, "pool.ntp.org", TypeA)
				r := q.Reply()
				for i := 0; i < count; i++ {
					r.Answers = append(r.Answers, ARecord("pool.ntp.org", 86400*7,
						[4]byte{203, 0, byte(i >> 8), byte(i)}))
				}
				if edns {
					r.SetEDNS(uint16(payload))
				}
				b, err := r.Encode()
				if err != nil {
					t.Fatal(err)
				}
				return len(b)
			}
			if got := build(k); got > payload {
				t.Errorf("payload=%d edns=%v: %d records encode to %d bytes", payload, edns, k, got)
			}
			if got := build(k + 1); got <= payload {
				t.Errorf("payload=%d edns=%v: %d+1 records still fit (%d bytes)", payload, edns, k, got)
			}
		}
	}
}

func TestMaxARecordsTinyPayload(t *testing.T) {
	got, err := MaxARecords("pool.ntp.org", 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("tiny payload should hold 0 records, got %d", got)
	}
	if _, err := MaxARecords("bad..name", 512, false); err == nil {
		t.Error("invalid qname accepted")
	}
}

// randomName produces a valid random domain name from the quick fuzzer seed.
func randomName(rng *rand.Rand) string {
	labels := 1 + rng.Intn(4)
	parts := make([]string, labels)
	for i := range parts {
		l := 1 + rng.Intn(12)
		b := make([]byte, l)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, ".")
}

// Property: encode→decode is the identity on structurally valid messages.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Message{
			ID:               uint16(rng.Intn(1 << 16)),
			Response:         rng.Intn(2) == 0,
			Authoritative:    rng.Intn(2) == 0,
			RecursionDesired: rng.Intn(2) == 0,
			RCode:            RCode(rng.Intn(6)),
		}
		m.Questions = append(m.Questions, Question{
			Name: randomName(rng), Type: TypeA, Class: ClassIN,
		})
		for i, n := 0, rng.Intn(20); i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				m.Answers = append(m.Answers, ARecord(randomName(rng), rng.Uint32(),
					[4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}))
			case 1:
				m.Answers = append(m.Answers, CNAMERecord(randomName(rng), rng.Uint32(), randomName(rng)))
			case 2:
				m.Answers = append(m.Answers, NSRecord(randomName(rng), rng.Uint32(), randomName(rng)))
			default:
				m.Answers = append(m.Answers, TXTRecord(randomName(rng), rng.Uint32(), randomName(rng)))
			}
		}
		b, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: the decoder never panics on arbitrary input bytes.
func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", b, r)
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: compressed encoding is never larger than uncompressed.
func TestCompressionNeverGrowsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		name := randomName(rng)
		m := NewQuery(1, name, TypeA)
		r := m.Reply()
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			r.Answers = append(r.Answers, ARecord(name, 60, [4]byte{1, 2, 3, byte(i)}))
		}
		c, err1 := r.Encode()
		u, err2 := refEncode(r, false)
		if err1 != nil || err2 != nil {
			return false
		}
		return len(c) <= len(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRecordOffsets(t *testing.T) {
	q := NewQuery(7, "pool.ntp.org", TypeA)
	r := q.Reply()
	r.Answers = []RR{ARecord("pool.ntp.org", 150, [4]byte{1, 2, 3, 4})}
	r.Authority = []RR{NSRecord("ntp.org", 3600, "ns1.ntp.org")}
	r.Additional = []RR{ARecord("ns1.ntp.org", 3600, [4]byte{5, 6, 7, 8})}
	b, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	locs, err := RecordOffsets(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 {
		t.Fatalf("locs = %d, want 3", len(locs))
	}
	glue := locs[2]
	if glue.Name != "ns1.ntp.org" || glue.Type != TypeA || glue.RDLen != 4 {
		t.Fatalf("glue loc: %+v", glue)
	}
	// Patch the rdata in place and confirm the decoder sees the change.
	copy(b[glue.RDataOff:glue.RDataOff+4], []byte{9, 9, 9, 9})
	dec, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Additional[0].A != [4]byte{9, 9, 9, 9} {
		t.Error("patched rdata not visible to decoder")
	}
	// Error paths.
	if _, err := RecordOffsets([]byte{1}); err == nil {
		t.Error("short message accepted")
	}
	if _, err := RecordOffsets(b[:len(b)-2]); err == nil {
		t.Error("truncated message accepted")
	}
}

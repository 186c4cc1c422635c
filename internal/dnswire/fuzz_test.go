package dnswire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// messageSeeds is the seed corpus of the wire-format fuzz targets: the
// message shapes the reproduction actually exchanges, then adversarial
// ones (truncated header, compression self-pointer, absurd section
// counts). The reference encoder writes them, so a fault in Encode cannot
// bend the seeds meant to catch it.
func messageSeeds() [][]byte {
	var seeds [][]byte
	add := func(m *Message) {
		if b, err := refEncode(m, true); err == nil {
			seeds = append(seeds, b)
		}
	}
	q := NewQuery(0x1234, "pool.ntp.org", TypeA)
	q.SetEDNS(4096)
	add(q)
	resp := q.Reply()
	resp.Authoritative = true
	for i := 0; i < 16; i++ {
		resp.Answers = append(resp.Answers, ARecord("pool.ntp.org", 150, [4]byte{203, 0, 0, byte(i + 1)}))
	}
	resp.Authority = append(resp.Authority, NSRecord("ntp.org", 3590, "ns1.ntp.org"))
	resp.Additional = append(resp.Additional, ARecord("ns1.ntp.org", 3590, [4]byte{198, 51, 100, 10}))
	add(resp)
	soa := &Message{ID: 9, Response: true, RCode: RCodeNXDomain}
	soa.Questions = append(soa.Questions, Question{Name: "nx.ntp.org", Type: TypeA, Class: ClassIN})
	soa.Authority = append(soa.Authority, RR{
		Name: "ntp.org", Type: TypeSOA, Class: ClassIN, TTL: 30,
		SOA: &SOAData{MName: "ns1.ntp.org", RName: "hostmaster.ntp.org", Serial: 1, Minimum: 30},
	})
	soa.Additional = append(soa.Additional,
		TXTRecord("probe.ntp.org", 60, "chronos", "reproduction"),
		CNAMERecord("www.ntp.org", 60, "ntp.org"),
	)
	add(soa)
	return append(seeds,
		[]byte{0, 1, 0, 0},
		[]byte{0, 1, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1},
		[]byte{0, 1, 0x80, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
	)
}

// FuzzParseMessage hammers the wire-format decoder with arbitrary bytes.
// The decoder sits directly on the attack surface — it parses spoofed,
// fragment-reassembled and attacker-forged responses — so it must never
// panic, and anything it accepts must survive a re-encode/re-decode round
// trip.
func FuzzParseMessage(f *testing.F) {
	for _, b := range messageSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode (or be rejected cleanly — a
		// decoded name can contain bytes our encoder refuses, e.g. a '.'
		// inside a wire label) and, if re-encoded, re-decode.
		b, err := msg.Encode()
		if err != nil {
			return
		}
		m2, err := Decode(b)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if len(m2.Answers) != len(msg.Answers) ||
			len(m2.Authority) != len(msg.Authority) ||
			len(m2.Additional) != len(msg.Additional) ||
			len(m2.Questions) != len(msg.Questions) {
			t.Fatalf("section counts changed across round trip: %+v vs %+v", msg, m2)
		}
	})
}

// FuzzRecordOffsets holds RecordOffsets to Decode: for every message
// Decode accepts it must locate each answer, authority and additional
// record, in wire order, with Decode's name and type, the decoded TTL in
// the four bytes at TTLOff, and an A record's address in the four bytes at
// RDataOff.
func FuzzRecordOffsets(f *testing.F) {
	for _, b := range messageSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		locs, err := RecordOffsets(data)
		if err != nil {
			t.Fatalf("Decode accepts the message, RecordOffsets fails: %v", err)
		}
		rrs := append(append(slices.Clone(msg.Answers), msg.Authority...), msg.Additional...)
		if len(locs) != len(rrs) {
			t.Fatalf("%d locations for %d records", len(locs), len(rrs))
		}
		for i, loc := range locs {
			rr := &rrs[i]
			if loc.Name != rr.Name || loc.Type != rr.Type {
				t.Fatalf("record %d: located %q %v, decoded %q %v", i, loc.Name, loc.Type, rr.Name, rr.Type)
			}
			if ttl := binary.BigEndian.Uint32(data[loc.TTLOff:]); ttl != rr.TTL {
				t.Fatalf("record %d: TTL bytes read %d, decoded %d", i, ttl, rr.TTL)
			}
			if rr.Type == TypeA && !bytes.Equal(data[loc.RDataOff:loc.RDataOff+4], rr.A[:]) {
				t.Fatalf("record %d: RDATA %v, decoded address %v", i, data[loc.RDataOff:loc.RDataOff+4], rr.A)
			}
		}
	})
}

// FuzzEncodeCompression holds AppendEncode byte for byte to refEncode, the
// encoder with the map-based name compressor it replaced, on every message
// the decoder accepts, and checks that appending onto a non-empty dst
// leaves dst's bytes alone and appends exactly Encode's bytes.
func FuzzEncodeCompression(f *testing.F) {
	for _, b := range messageSeeds() {
		f.Add(b, uint16(0))
		f.Add(b, uint16(37))
	}
	// More distinct suffixes than the compressor's inline table holds.
	many := NewQuery(7, "pool.ntp.org", TypeA).Reply()
	for i := 0; i < 40; i++ {
		many.Answers = append(many.Answers, ARecord(fmt.Sprintf("h%d.z%d.example", i, i%7), 60, [4]byte{192, 0, 2, byte(i)}))
	}
	// Names past offset 0x3FFF, where no suffix may be recorded: a padding
	// TXT record first, then names both new and already seen.
	far := NewQuery(8, "pool.ntp.org", TypeA).Reply()
	chunks := make([]string, 66)
	for i := range chunks {
		chunks[i] = strings.Repeat("x", 250)
	}
	far.Answers = append(far.Answers, TXTRecord("pad.example", 60, chunks...))
	for i := 0; i < 3; i++ {
		far.Answers = append(far.Answers,
			ARecord("far.example", 60, [4]byte{192, 0, 2, byte(i)}),
			CNAMERecord("pool.ntp.org", 60, "far.pad.example"))
	}
	for _, m := range []*Message{many, far} {
		b, err := refEncode(m, true)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint16(0))
		f.Add(b, uint16(0x4001))
	}

	f.Fuzz(func(t *testing.T, data []byte, pad uint16) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		want, wantErr := refEncode(msg, true)
		got, err := msg.Encode()
		if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("Encode = %x, %v; reference %x, %v", got, err, want, wantErr)
		}
		dst := bytes.Repeat([]byte{0xA5}, int(pad%0x4100))
		out, err := msg.AppendEncode(dst)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("AppendEncode after %d bytes: error %v, reference %v", len(dst), err, wantErr)
		}
		if err == nil && (!bytes.Equal(out[:len(dst)], bytes.Repeat([]byte{0xA5}, len(dst))) || !bytes.Equal(out[len(dst):], want)) {
			t.Fatalf("AppendEncode after %d bytes appended %x, want %x", len(dst), out[len(dst):], want)
		}
	})
}

// refEncode encodes m as Encode did with a map from each name suffix
// already written to its offset, keeping the first: the reference for
// the compressor FuzzEncodeCompression checks. With compress false it
// writes every name in full, the size the compressor is measured against.
func refEncode(m *Message, compress bool) ([]byte, error) {
	offsets := make(map[string]int)
	name := func(buf []byte, n string) ([]byte, error) {
		if _, err := EncodedNameLen(n); err != nil {
			return nil, err
		}
		for n = NormalizeName(n); n != ""; {
			if off, ok := offsets[n]; ok {
				return append(buf, byte(0xC0|off>>8), byte(off)), nil
			}
			if compress && len(buf) <= 0x3FFF {
				offsets[n] = len(buf)
			}
			label, rest, _ := strings.Cut(n, ".")
			buf = append(append(buf, byte(len(label))), label...)
			n = rest
		}
		return append(buf, 0), nil
	}
	rr := func(buf []byte, r RR) ([]byte, error) {
		buf, err := name(buf, r.Name)
		if err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(r.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(r.Class))
		buf = binary.BigEndian.AppendUint32(buf, r.TTL)
		at := len(buf)
		buf = append(buf, 0, 0)
		switch r.Type {
		case TypeA:
			buf = append(buf, r.A[:]...)
		case TypeNS, TypeCNAME, TypePTR:
			buf, err = name(buf, r.Target)
		case TypeTXT:
			for _, c := range r.TXT {
				if len(c) > 255 {
					return nil, ErrBadRData
				}
				buf = append(append(buf, byte(len(c))), c...)
			}
		case TypeSOA:
			if r.SOA == nil {
				return nil, ErrBadRData
			}
			if buf, err = name(buf, r.SOA.MName); err == nil {
				buf, err = name(buf, r.SOA.RName)
			}
			for _, v := range []uint32{r.SOA.Serial, r.SOA.Refresh, r.SOA.Retry, r.SOA.Expire, r.SOA.Minimum} {
				buf = binary.BigEndian.AppendUint32(buf, v)
			}
		case TypeOPT:
		default:
			buf = append(buf, r.Raw...)
		}
		if err != nil {
			return nil, err
		}
		if len(buf)-at-2 > 65535 {
			return nil, ErrTooBig
		}
		binary.BigEndian.PutUint16(buf[at:], uint16(len(buf)-at-2))
		return buf, nil
	}

	flags := uint16(m.Opcode&0xF)<<11 | uint16(m.RCode&0xF)
	for bit, set := range map[uint16]bool{15: m.Response, 10: m.Authoritative, 9: m.Truncated, 8: m.RecursionDesired, 7: m.RecursionAvailable} {
		if set {
			flags |= 1 << bit
		}
	}
	var buf []byte
	for _, v := range []int{int(m.ID), int(flags), len(m.Questions), len(m.Answers), len(m.Authority), len(m.Additional)} {
		buf = binary.BigEndian.AppendUint16(buf, uint16(v))
	}
	var err error
	for _, q := range m.Questions {
		if buf, err = name(buf, q.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			if buf, err = rr(buf, r); err != nil {
				return nil, err
			}
		}
	}
	if len(buf) > 65535 {
		return nil, ErrTooBig
	}
	return buf, nil
}

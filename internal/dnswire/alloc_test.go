package dnswire

import (
	"bytes"
	"testing"
)

// benignResponse is the wire image a resolver parses on every pool query:
// one question, four A records. The hot path of the simulation.
func benignResponse(t *testing.T) []byte {
	t.Helper()
	m := NewQuery(0x1234, "pool.ntp.org", TypeA)
	r := m.Reply()
	r.Answers = []RR{
		ARecord("pool.ntp.org", 150, [4]byte{192, 0, 2, 1}),
		ARecord("pool.ntp.org", 150, [4]byte{192, 0, 2, 2}),
		ARecord("pool.ntp.org", 150, [4]byte{192, 0, 2, 3}),
		ARecord("pool.ntp.org", 150, [4]byte{192, 0, 2, 4}),
	}
	b, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// forgedResponse is the attacker's answer to an EDNS pool query: the 89
// A records one unfragmented 1472-byte response carries, every owner name
// a pointer to the question.
func forgedResponse(t *testing.T) *Message {
	t.Helper()
	q := NewQuery(1, "pool.ntp.org", TypeA)
	q.SetEDNS(EthernetMaxPayload)
	r := q.Reply()
	r.Authoritative, r.RecursionAvailable = true, true
	r.SetEDNS(EthernetMaxPayload)
	n, err := MaxARecords("pool.ntp.org", EthernetMaxPayload, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.Answers = append(r.Answers, ARecord("pool.ntp.org", 7*86400, [4]byte{66, 0, byte(i >> 8), byte(i)}))
	}
	return r
}

// TestDecodeAllocCeiling caps the allocation cost of parsing the common
// pool response: the Message, one slice per populated section, and one
// string per distinct name — nothing else. The ceiling is a ratchet —
// lower it if decode gets leaner, never raise it without a corresponding
// simulation-wide justification.
func TestDecodeAllocCeiling(t *testing.T) {
	wire := benignResponse(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Decode(wire); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 4
	if allocs > ceiling {
		t.Fatalf("Decode allocates %.1f objects/op, ceiling %d", allocs, ceiling)
	}
}

// TestDecodeForgedAllocCeiling caps the cost of parsing the forged
// 89-record response, a ratchet like the one above: the Message, the
// question slice and name, the answer slice and its one growth past
// sectionCap, and the OPT record's section. The answers' owner names are
// the question's string, so the count does not grow with the records.
func TestDecodeForgedAllocCeiling(t *testing.T) {
	wire, err := forgedResponse(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var got *Message
	allocs := testing.AllocsPerRun(200, func() {
		if got, err = Decode(wire); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 6
	if allocs > ceiling {
		t.Fatalf("Decode of the forged response allocates %.1f objects/op, ceiling %d", allocs, ceiling)
	}
	if len(got.Answers) != 89 || got.Answers[88].Name != "pool.ntp.org" {
		t.Fatalf("decoded %d answers, last named %q", len(got.Answers), got.Answers[len(got.Answers)-1].Name)
	}
}

// TestAppendEncodeAllocFree pins that encoding into a buffer with room
// for the message allocates nothing: the name compressor lives on the
// stack. Servers and the resolver encode every DNS packet this way.
func TestAppendEncodeAllocFree(t *testing.T) {
	m := forgedResponse(t)
	buf := make([]byte, 0, 2048)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = m.AppendEncode(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode into a 2 KiB buffer allocates %.1f objects/op, want 0", allocs)
	}
	if want, err := m.Encode(); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("AppendEncode wrote %d bytes unlike Encode's %d (err %v)", len(buf), len(want), err)
	}
}

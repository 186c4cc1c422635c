package ntpwire

import (
	"bytes"
	"testing"
	"time"
)

// FuzzParsePacket hammers the NTP header decoder with arbitrary bytes.
// Like the DNS decoder, it sits on the attack surface — every spoofed or
// attacker-controlled NTP response passes through it — so it must never
// panic, must reject exactly the under-sized inputs, and everything it
// accepts must survive a bit-exact re-encode of the 48-byte header
// (every field maps to fixed bits, so the round trip is lossless).
func FuzzParsePacket(f *testing.F) {
	// Seed corpus: the packet shapes the reproduction exchanges.
	t1 := time.Date(2020, 6, 1, 0, 0, 0, 123456789, time.UTC)
	f.Add(NewClientPacket(t1).Encode())
	resp := &Packet{
		Leap:           LeapNone,
		Version:        Version,
		Mode:           ModeServer,
		Stratum:        2,
		Poll:           6,
		Precision:      -23,
		RootDelay:      ShortFromDuration(5 * time.Millisecond),
		RootDispersion: ShortFromDuration(time.Millisecond),
		ReferenceID:    0x53494D00,
		ReferenceTime:  TimestampFromTime(t1.Add(-30 * time.Second)),
		OriginTime:     TimestampFromTime(t1),
		ReceiveTime:    TimestampFromTime(t1.Add(2 * time.Millisecond)),
		TransmitTime:   TimestampFromTime(t1.Add(2*time.Millisecond + 10*time.Microsecond)),
	}
	f.Add(resp.Encode())
	// Adversarial shapes: empty, truncated header, all-ones, mode/leap
	// bit soup, and a packet with a trailing extension blob.
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, PacketSize-1))
	f.Add(bytes.Repeat([]byte{0xFF}, PacketSize))
	f.Add(append([]byte{0xE7}, bytes.Repeat([]byte{0xA5}, PacketSize+20)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := new(Packet)
		err := DecodeInto(p, data)
		if len(data) < PacketSize {
			if err == nil {
				t.Fatalf("decoded a %d-byte packet", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected a %d-byte packet: %v", len(data), err)
		}
		// The 48-byte header must round-trip bit-exactly: leap(2) +
		// version(3) + mode(3) fill the first byte, every other field is
		// a whole-byte slice.
		if got := p.Encode(); !bytes.Equal(got, data[:PacketSize]) {
			t.Fatalf("re-encode changed the header:\n in: %x\nout: %x", data[:PacketSize], got)
		}
		// And the decoded view of the re-encoding must match field for
		// field.
		var p2 Packet
		if err := DecodeInto(&p2, p.Encode()); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if p2 != *p {
			t.Fatalf("round trip changed fields: %+v vs %+v", *p, p2)
		}
	})
}

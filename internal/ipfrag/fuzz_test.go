package ipfrag

import (
	"encoding/binary"
	"testing"
	"time"
)

// fuzzEpoch anchors the virtual clock of the fuzzed reassembler.
var fuzzEpoch = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// FuzzReassemble drives the fragment cache with an attacker-controlled
// fragment stream decoded from the fuzz input. The reassembler accepts
// raw spoofed fragments by design (that is the attack under study), so it
// must stay memory-safe and bounded for any interleaving of offsets,
// flags, overlaps, flow keys and timestamps. It also tracks each flow's
// first-arrival time itself and checks after every Insert that exactly
// the partials older than the timeout are gone: none evicted early, none
// kept late.
//
// Input script, repeated until the data runs out:
//
//	byte 0:   flow-key selector (low 2 bits) | policy/limits come from byte 1 of the input
//	byte 1-2: fragment offset in 8-byte units (big endian)
//	byte 3:   flags: bit0 = More, bits 4-7 = time step in seconds
//	byte 4:   payload length
//	...       payload bytes
func FuzzReassemble(f *testing.F) {
	// Seeds: a clean split/reassemble pair, an overlapping spoofed tail,
	// and a tiny-fragment flood.
	whole := func(off int, more bool, payload []byte) []byte {
		var b []byte
		b = append(b, 0)
		var o [2]byte
		binary.BigEndian.PutUint16(o[:], uint16(off/FragmentUnit))
		b = append(b, o[:]...)
		flags := byte(0)
		if more {
			flags |= 1
		}
		b = append(b, flags, byte(len(payload)))
		return append(b, payload...)
	}
	f.Add(append(whole(0, true, make([]byte, 48)), whole(48, false, []byte("tail"))...))
	f.Add(append(append(
		whole(0, true, make([]byte, 16)),
		whole(8, true, []byte{1, 2, 3, 4, 5, 6, 7, 8})...),
		whole(16, false, []byte("x"))...))
	f.Add(whole(0, false, []byte("unfragmented")))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{
			Policy:       OverlapPolicy(data[0]%2 + 1),
			MaxDatagrams: int(data[0]%16) + 1,
			MaxFragments: int(data[1]%16) + 1,
			MinFragment:  int(data[1] % 64),
		}
		r := NewReassembler(cfg)
		now := fuzzEpoch
		keys := []FlowKey{
			{Src: [4]byte{198, 41, 0, 4}, Dst: [4]byte{10, 0, 0, 53}, Proto: 17, ID: 7},
			{Src: [4]byte{66, 66, 0, 1}, Dst: [4]byte{10, 0, 0, 53}, Proto: 17, ID: 7},
			{Src: [4]byte{198, 41, 0, 4}, Dst: [4]byte{10, 0, 0, 53}, Proto: 17, ID: 8},
			{Src: [4]byte{198, 41, 0, 4}, Dst: [4]byte{10, 0, 0, 53}, Proto: 1, ID: 7},
		}
		// first is the model: the first-arrival time of every flow the
		// cache should hold.
		first := make(map[FlowKey]time.Time)
		for i := 2; i+5 <= len(data); {
			hdr := data[i : i+5]
			n := int(hdr[4])
			i += 5
			if i+n > len(data) {
				n = len(data) - i
			}
			payload := data[i : i+n]
			i += n
			frag := Fragment{
				Key:    keys[hdr[0]%4],
				Offset: int(binary.BigEndian.Uint16(hdr[1:3])) * FragmentUnit,
				More:   hdr[3]&1 != 0,
				Data:   payload,
			}
			out, done := r.Insert(now, frag)
			if done && len(out) > 65535 {
				t.Fatalf("reassembled datagram exceeds IPv4 limit: %d bytes", len(out))
			}
			if r.Pending() > cfg.MaxDatagrams {
				t.Fatalf("pending partials %d exceed cap %d", r.Pending(), cfg.MaxDatagrams)
			}
			// Insert evicts only for a fragment that passes the checks
			// dropping it outright, then starts a partial for a new flow
			// if there is room.
			if !frag.IsWhole() && (!frag.More || len(payload)%FragmentUnit == 0) &&
				(!frag.More || len(payload) >= cfg.MinFragment) && frag.Offset+len(payload) <= maxDatagram {
				for k, at := range first {
					if now.Sub(at) > r.cfg.Timeout {
						delete(first, k)
					}
				}
				if _, ok := first[frag.Key]; !ok && len(first) < cfg.MaxDatagrams {
					first[frag.Key] = now
				}
				if done {
					delete(first, frag.Key)
				}
			}
			for _, k := range keys {
				if at, want := first[k]; hasPending(r, k) != want {
					t.Fatalf("at +%v: flow %v pending %v, want %v (first arrival +%v, timeout %v)",
						now.Sub(fuzzEpoch), k, hasPending(r, k), want, at.Sub(fuzzEpoch), r.cfg.Timeout)
				}
			}
			now = now.Add(time.Duration(hdr[3]>>4) * time.Second)
		}
		r.Evict(now.Add(time.Minute))
		if r.Pending() != 0 {
			t.Fatalf("evict left %d partials past the timeout", r.Pending())
		}
	})
}

// FuzzSplitRoundTrip checks the transmit side against the receive side:
// any payload split at any sane MTU must reassemble to the same bytes.
func FuzzSplitRoundTrip(f *testing.F) {
	f.Add([]byte("a dns response that will fragment"), 68)
	f.Add(make([]byte, 2000), 576)
	f.Add([]byte{}, 1500)
	f.Fuzz(func(t *testing.T, payload []byte, mtu int) {
		key := FlowKey{Src: [4]byte{1, 2, 3, 4}, Dst: [4]byte{5, 6, 7, 8}, Proto: 17, ID: 42}
		frags, err := Split(key, payload, mtu)
		if err != nil {
			return
		}
		r := NewReassembler(Config{MaxFragments: len(frags) + 1})
		var out []byte
		done := false
		for _, fr := range frags {
			out, done = r.Insert(fuzzEpoch, fr)
		}
		if !done {
			t.Fatalf("split of %dB at mtu %d did not reassemble", len(payload), mtu)
		}
		if string(out) != string(payload) {
			t.Fatalf("round trip corrupted payload: %d in, %d out", len(payload), len(out))
		}
	})
}

package ntpauth

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"chronosntp/internal/ntpwire"
)

// fuzzAuthEnv is the shared fixture for FuzzAuthExtensions: one key per
// algorithm and a require-auth policy over them. Built lazily once per
// process; the fuzz callback runs sequentially within a process so the
// non-concurrency-safe MACer state is fine.
type fuzzAuthEnv struct {
	table  *KeyTable
	mac    *MACer
	policy *ServerAuth
}

var fuzzAuth = sync.OnceValue(func() *fuzzAuthEnv {
	table, err := NewKeyTable(
		Key{ID: 1, Algo: AlgoMD5, Secret: []byte("fuzz-md5")},
		Key{ID: 2, Algo: AlgoSHA1, Secret: []byte("fuzz-sha1")},
		Key{ID: 3, Algo: AlgoSHA256, Secret: []byte("fuzz-sha256")},
	)
	if err != nil {
		panic(err)
	}
	return &fuzzAuthEnv{
		table:  table,
		mac:    NewMACer(table),
		policy: &ServerAuth{Keys: table, Require: true},
	}
})

// FuzzAuthExtensions hammers the authenticated-datagram surface —
// ntpwire.SplitAuth framing plus the ServerAuth classification that
// sits directly on the wirenet read loop — with arbitrary bytes.
// Invariants: no panics anywhere; SplitAuth's regions tile the
// datagram exactly; and verify-iff-valid — whenever classification
// reports a valid MAC, an independent recomputation of the digest must
// agree, so forged or bit-flipped trailers can never classify as
// authenticated.
func FuzzAuthExtensions(f *testing.F) {
	env := fuzzAuth()
	t1 := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	base := ntpwire.NewClientPacket(t1).Encode()

	// Seeds: bare header; one genuine MAC per algorithm; a genuine
	// SHA-256 MAC over a foreign extension field; that field alone; a
	// truncated MAC; framing soup.
	f.Add(append([]byte(nil), base...))
	for id := uint32(1); id <= 3; id++ {
		sealed, _ := env.mac.AppendMAC(append([]byte(nil), base...), id, base)
		f.Add(sealed)
	}
	withField := appendField(append([]byte(nil), base...), foreignField, 16)
	sealed, _ := env.mac.AppendMAC(append([]byte(nil), withField...), 3, withField)
	f.Add(sealed)
	f.Add(withField)
	f.Add(append(append([]byte(nil), base...), make([]byte, 19)...))
	f.Add(append(append([]byte(nil), base...), 0x01, 0x04, 0x00, 0x03))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ext, mac, ok := ntpwire.SplitAuth(data)
		if ok {
			if ntpwire.PacketSize+len(ext)+len(mac) != len(data) {
				t.Fatalf("regions do not tile: %d+%d+%d != %d",
					ntpwire.PacketSize, len(ext), len(mac), len(data))
			}
		} else if len(data) >= ntpwire.PacketSize {
			// Malformed post-header region: it must not be empty.
			if len(data) == ntpwire.PacketSize {
				t.Fatal("SplitAuth rejected a bare header")
			}
		}

		var ra RequestAuth
		env.policy.Authenticate(data, &ra)
		if ra.MAC {
			// verify-iff-valid: recompute the digest independently.
			k, found := env.table.Lookup(ra.KeyID)
			if !found {
				t.Fatalf("authenticated under unknown key %d", ra.KeyID)
			}
			trailer := data[len(data)-k.Algo.TrailerSize():]
			if got := binary.BigEndian.Uint32(trailer[:4]); got != ra.KeyID {
				t.Fatalf("trailer key ID %d != classified %d", got, ra.KeyID)
			}
			fresh := NewMACer(env.table)
			if _, ok := fresh.Verify(data[:len(data)-len(trailer)], trailer); !ok {
				t.Fatal("classified MAC does not re-verify")
			}
		}
		if ra.Authenticated() && ra.Bad {
			t.Fatal("authenticated and bad at once")
		}

		// The client-side verifier must be panic-free on the same bytes.
		client := &ClientAuth{Key: Key{ID: 3, Algo: AlgoSHA256, Secret: []byte("fuzz-sha256")}, Require: true}
		authed, acc := client.VerifyResponse(data)
		if authed && !acc {
			t.Fatal("authenticated reply not acceptable")
		}
	})
}

// FuzzCheckReply feeds arbitrary datagrams and origins to the reply check
// every client runs on attacker-controlled bytes, under a nil, SHA-256 or
// MD5 policy and with or without association state. It must never panic;
// ReplyOK implies a valid server response the policy accepts, and
// ReplyKiss implies association state and an echoed origin.
func FuzzCheckReply(f *testing.F) {
	env := fuzzAuth()
	t1 := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	echo := ntpwire.TimestampFromTime(t1)
	good := ntpwire.Packet{Version: 4, Mode: ntpwire.ModeServer, Stratum: 2,
		OriginTime: echo, ReceiveTime: echo, TransmitTime: echo}
	var kiss ntpwire.Packet
	FillKoD(&kiss, KissDENY, ntpwire.NewClientPacket(t1), t1)
	sealed, _ := env.mac.AppendMAC(good.Encode(), 3, good.Encode())
	// policy%3 picks nil, the SHA-256 key or the MD5 key; bit 2 sets
	// Require.
	for _, policy := range []uint8{0, 1, 2, 4, 5} {
		f.Add(good.Encode(), uint64(echo), policy, true)
		f.Add(kiss.Encode(), uint64(echo), policy, true)
		f.Add(kiss.Encode(), uint64(echo), policy, false)
		f.Add(sealed, uint64(echo), policy, true)
		f.Add([]byte{0x24}, uint64(echo), policy, false)
	}

	f.Fuzz(func(t *testing.T, data []byte, origin uint64, policy uint8, withState bool) {
		// A fresh policy per input, so MAC scratch cannot leak between
		// inputs; the invariants below check against an identical twin.
		mk := func() *ClientAuth {
			switch policy % 3 {
			case 1:
				return &ClientAuth{Key: Key{ID: 3, Algo: AlgoSHA256, Secret: []byte("fuzz-sha256")}, Require: policy&4 != 0}
			case 2:
				return &ClientAuth{Key: Key{ID: 1, Algo: AlgoMD5, Secret: []byte("fuzz-md5")}, Require: policy&4 != 0}
			}
			return nil
		}
		auth := mk()
		var st *AssocState
		if withState {
			st = new(AssocState)
		}
		var resp ntpwire.Packet
		switch auth.CheckReply(&resp, data, ntpwire.Timestamp(origin), st) {
		case ReplyOK:
			if !ntpwire.ValidServerResponse(&resp, ntpwire.Timestamp(origin)) {
				t.Fatalf("accepted an invalid server response %+v", resp)
			}
			if _, acceptable := mk().VerifyResponse(data); !acceptable {
				t.Fatal("accepted a reply the policy refuses")
			}
		case ReplyKiss:
			if st == nil {
				t.Fatal("kiss reported without association state")
			}
			if resp.OriginTime != ntpwire.Timestamp(origin) {
				t.Fatalf("kiss with origin %v believed for %v", resp.OriginTime, origin)
			}
		}
	})
}

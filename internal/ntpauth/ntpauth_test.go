package ntpauth

import (
	"encoding/binary"
	"testing"
	"time"

	"chronosntp/internal/ntpwire"
)

func testKey(id uint32, algo Algorithm) Key {
	return Key{ID: id, Algo: algo, Secret: []byte("chronos-test-secret")}
}

func encodedRequest(t *testing.T) []byte {
	t.Helper()
	now := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
	p := ntpwire.NewClientPacket(now)
	return p.AppendEncode(make([]byte, 0, 256))
}

func TestMACRoundTripAllAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{AlgoMD5, AlgoSHA1, AlgoSHA256} {
		table, err := NewKeyTable(testKey(7, algo))
		if err != nil {
			t.Fatalf("%v: NewKeyTable: %v", algo, err)
		}
		m := NewMACer(table)
		msg := encodedRequest(t)
		out, ok := m.AppendMAC(msg, 7, msg)
		if !ok {
			t.Fatalf("%v: AppendMAC refused known key", algo)
		}
		if got, want := len(out), ntpwire.PacketSize+algo.TrailerSize(); got != want {
			t.Fatalf("%v: trailer length %d, want %d", algo, got, want)
		}
		ext, mac, ok := ntpwire.SplitAuth(out)
		if !ok || len(ext) != 0 || len(mac) != algo.TrailerSize() {
			t.Fatalf("%v: SplitAuth ext=%d mac=%d ok=%v", algo, len(ext), len(mac), ok)
		}
		keyID, ok := m.Verify(out[:len(out)-len(mac)], mac)
		if !ok || keyID != 7 {
			t.Fatalf("%v: Verify keyID=%d ok=%v", algo, keyID, ok)
		}
		// Any single flipped bit in header or trailer must fail verification.
		for _, i := range []int{0, 20, len(out) - 1} {
			tampered := append([]byte(nil), out...)
			tampered[i] ^= 1
			if _, ok := m.Verify(tampered[:len(tampered)-len(mac)], tampered[len(tampered)-len(mac):]); ok {
				t.Fatalf("%v: tampered byte %d still verifies", algo, i)
			}
		}
	}
}

func TestMACVerifyRejectsUnknownKeyAndWrongAlgo(t *testing.T) {
	table, err := NewKeyTable(testKey(1, AlgoSHA256))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMACer(table)
	msg := encodedRequest(t)
	out, _ := m.AppendMAC(msg, 1, msg)
	mac := out[ntpwire.PacketSize:]
	// Unknown key ID.
	bad := append([]byte(nil), mac...)
	bad[3] = 99
	if _, ok := m.Verify(msg, bad); ok {
		t.Fatal("unknown key ID verified")
	}
	// Right key, trailer length of a different algorithm.
	if _, ok := m.Verify(msg, mac[:20]); ok {
		t.Fatal("truncated trailer verified")
	}
}

func TestKeyTableRejectsAmbiguousAndInvalidKeys(t *testing.T) {
	cases := []Key{
		{ID: 1, Algo: AlgoNone, Secret: []byte("x")},       // no algorithm
		{ID: 1, Algo: AlgoMD5},                             // empty secret
		{ID: 20, Algo: AlgoMD5, Secret: []byte("x")},       // low 16 bits == md5 trailer len
		{ID: 0x70018, Algo: AlgoSHA1, Secret: []byte("x")}, // low 16 bits == sha1 trailer len
	}
	for _, k := range cases {
		if _, err := NewKeyTable(k); err == nil {
			t.Errorf("key %+v accepted, want error", k)
		}
	}
	if _, err := NewKeyTable(testKey(1, AlgoMD5), testKey(1, AlgoSHA1)); err == nil {
		t.Error("duplicate key ID accepted")
	}
}

// appendField appends one RFC 7822 extension field of type typ with a
// zero body of n bytes (n a multiple of 4) onto b.
func appendField(b []byte, typ uint16, n int) []byte {
	b = binary.BigEndian.AppendUint16(b, typ)
	b = binary.BigEndian.AppendUint16(b, uint16(ntpwire.ExtHeaderSize+n))
	return append(b, make([]byte, n)...)
}

// foreignField is an extension-field type this stack does not
// interpret.
const foreignField = 0x0104

func TestSplitAuthPrefersExtensionParse(t *testing.T) {
	// A region that parses entirely as extension fields is not a MAC,
	// even when its total length matches a MAC trailer length.
	b := appendField(encodedRequest(t), foreignField, 16)
	ext, mac, ok := ntpwire.SplitAuth(b)
	if !ok || len(mac) != 0 || len(ext) != 20 {
		t.Fatalf("uid-only packet: ext=%d mac=%d ok=%v", len(ext), len(mac), ok)
	}
}

func TestKoDPacketAndStateMachine(t *testing.T) {
	now := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	req := ntpwire.NewClientPacket(now)
	var kod ntpwire.Packet
	FillKoD(&kod, KissDENY, req, now)
	if !IsKoD(&kod) || Code(&kod) != KissDENY {
		t.Fatalf("FillKoD: IsKoD=%v code=%v", IsKoD(&kod), Code(&kod))
	}
	if kod.OriginTime != req.TransmitTime {
		t.Fatal("KoD does not echo origin")
	}
	// A KoD must NOT pass the normal reply predicate (stratum 0).
	if ntpwire.ValidServerResponse(&kod, req.TransmitTime) {
		t.Fatal("KoD passes ValidServerResponse")
	}
	if KissDENY.String() != "DENY" || KissRATE.String() != "RATE" || KissRSTR.String() != "RSTR" {
		t.Fatal("kiss code strings wrong")
	}

	var s AssocState
	s.OnKoD(KissRATE, false, false)
	if s.Dead || s.RateStrikes != 1 {
		t.Fatalf("after RATE: %+v", s)
	}
	s.OnKoD(KissDENY, false, true) // unauthenticated kiss on a require-auth assoc: ignored
	if s.Dead {
		t.Fatal("require-auth association believed an unauthenticated DENY")
	}
	s.OnKoD(KissDENY, true, true)
	if !s.Dead || s.Usable() {
		t.Fatal("authenticated DENY did not demobilize")
	}
}

func TestServerAuthPolicy(t *testing.T) {
	table, _ := NewKeyTable(testKey(5, AlgoSHA256))
	auth := &ServerAuth{Keys: table, Require: true}

	var ra RequestAuth
	// Bare request under Require: DENY.
	bare := encodedRequest(t)
	auth.Authenticate(bare, &ra)
	if ra.Authenticated() || auth.KissFor(&ra) != KissDENY {
		t.Fatalf("bare request: %+v kiss=%v", ra, auth.KissFor(&ra))
	}

	// MAC request: verified, served, reply sealed with same key.
	client := &ClientAuth{Key: testKey(5, AlgoSHA256), Require: true}
	macReq := client.SealRequest(encodedRequest(t))
	auth.Authenticate(macReq, &ra)
	if !ra.Authenticated() || !ra.MAC || ra.KeyID != 5 || auth.KissFor(&ra) != 0 {
		t.Fatalf("mac request: %+v", ra)
	}
	reply := ntpwire.Packet{Version: 4, Mode: ntpwire.ModeServer, Stratum: 2}
	out := reply.AppendEncode(make([]byte, 0, 256))
	out = auth.SealResponse(out, &ra)
	if authed, acc := client.VerifyResponse(out); !authed || !acc {
		t.Fatalf("client rejects MAC reply: authed=%v acc=%v", authed, acc)
	}

	// Stripped reply (attacker removed the MAC): not acceptable under Require.
	if authed, acc := client.VerifyResponse(out[:ntpwire.PacketSize]); authed || acc {
		t.Fatalf("stripped reply: authed=%v acc=%v", authed, acc)
	}
	// Same stripped reply on a non-require association: acceptable downgrade.
	lax := &ClientAuth{Key: testKey(5, AlgoSHA256)}
	if authed, acc := lax.VerifyResponse(out[:ntpwire.PacketSize]); authed || !acc {
		t.Fatalf("lax stripped reply: authed=%v acc=%v", authed, acc)
	}
	// Corrupted MAC: never acceptable, even without Require.
	bad := append([]byte(nil), out...)
	bad[len(bad)-1] ^= 1
	if _, acc := lax.VerifyResponse(bad); acc {
		t.Fatal("corrupted MAC accepted")
	}

	// A foreign 20-byte extension field before the trailer: the MAC
	// covers it and still verifies, and the reply is sealed.
	withField := appendField(encodedRequest(t), foreignField, 16)
	auth.Authenticate(client.SealRequest(withField), &ra)
	if !ra.Authenticated() || !ra.MAC || ra.KeyID != 5 || auth.KissFor(&ra) != 0 {
		t.Fatalf("mac request with a foreign field: %+v", ra)
	}
	out = auth.SealResponse(reply.AppendEncode(out[:0]), &ra)
	if authed, acc := client.VerifyResponse(out); !authed || !acc {
		t.Fatalf("client rejects the reply to a request with a foreign field: authed=%v acc=%v", authed, acc)
	}
	// The same field with no trailer carries no credential this package
	// verifies: Bad, which ntpserver.Responder.ServeDatagram drops.
	auth.Authenticate(appendField(encodedRequest(t), foreignField, 16), &ra)
	if !ra.Bad || ra.Authenticated() {
		t.Fatalf("foreign field without a trailer: %+v", ra)
	}

	// Nil policy is a no-op.
	var nilAuth *ServerAuth
	nilAuth.Authenticate(macReq, &ra)
	if ra.MAC || nilAuth.KissFor(&ra) != 0 {
		t.Fatal("nil policy classified something")
	}
	if got := nilAuth.SealResponse(out[:ntpwire.PacketSize], &ra); len(got) != ntpwire.PacketSize {
		t.Fatal("nil policy sealed something")
	}
}

func TestMACVerifyZeroAlloc(t *testing.T) {
	table, _ := NewKeyTable(testKey(5, AlgoSHA256))
	m := NewMACer(table)
	msg := encodedRequest(t)
	out, _ := m.AppendMAC(msg, 5, msg)
	macLen := AlgoSHA256.TrailerSize()
	// Warm the lazily-built digest state before measuring.
	m.Verify(out[:len(out)-macLen], out[len(out)-macLen:])
	avg := testing.AllocsPerRun(200, func() {
		if _, ok := m.Verify(out[:len(out)-macLen], out[len(out)-macLen:]); !ok {
			t.Fatal("verify failed")
		}
	})
	if avg != 0 {
		t.Fatalf("MAC verify allocates %.1f/op, want 0", avg)
	}
	scratch := make([]byte, 0, 256)
	avg = testing.AllocsPerRun(200, func() {
		scratch = scratch[:0]
		scratch = append(scratch, msg...)
		var ok bool
		scratch, ok = m.AppendMAC(scratch, 5, scratch)
		if !ok {
			t.Fatal("append failed")
		}
	})
	if avg != 0 {
		t.Fatalf("MAC append allocates %.1f/op, want 0", avg)
	}
}

// TestCheckReply pins the one reply check every client runs: what it
// drops, rejects, takes as a kiss or accepts, and what a kiss does to
// the association state.
func TestCheckReply(t *testing.T) {
	t1 := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
	origin := ntpwire.TimestampFromTime(t1)
	key := testKey(5, AlgoSHA256)
	table, err := NewKeyTable(key)
	if err != nil {
		t.Fatal(err)
	}
	mac := NewMACer(table)
	reply := func(mode ntpwire.Mode, stratum uint8, echo ntpwire.Timestamp, ref KissCode) []byte {
		p := ntpwire.Packet{Version: 4, Mode: mode, Stratum: stratum, ReferenceID: uint32(ref),
			OriginTime: echo, ReceiveTime: origin, TransmitTime: origin}
		return p.AppendEncode(make([]byte, 0, 128))
	}
	sealed := func(b []byte) []byte {
		out, ok := mac.AppendMAC(b, key.ID, b)
		if !ok {
			t.Fatal("AppendMAC refused the test key")
		}
		return out
	}
	badMAC := sealed(reply(ntpwire.ModeServer, 2, origin, 0))
	badMAC[len(badMAC)-1] ^= 1
	require := &ClientAuth{Key: key, Require: true}

	cases := []struct {
		name    string
		auth    *ClientAuth
		payload []byte
		state   bool // pass a fresh AssocState rather than nil
		want    Reply
		after   AssocState
	}{
		{"malformed", nil, reply(ntpwire.ModeServer, 2, origin, 0)[:20], true, ReplyDrop, AssocState{}},
		{"wrong origin", nil, reply(ntpwire.ModeServer, 2, origin+1, 0), true, ReplyDrop, AssocState{}},
		{"client mode", nil, reply(ntpwire.ModeClient, 2, origin, 0), true, ReplyDrop, AssocState{}},
		{"stratum 0 with nil st", nil, reply(ntpwire.ModeServer, 0, origin, KissDENY), false, ReplyDrop, AssocState{}},
		{"kiss with wrong origin", nil, reply(ntpwire.ModeServer, 0, origin+1, KissDENY), true, ReplyDrop, AssocState{}},
		{"origin-valid DENY kiss", nil, reply(ntpwire.ModeServer, 0, origin, KissDENY), true, ReplyKiss, AssocState{Dead: true}},
		{"origin-valid RATE kiss", nil, reply(ntpwire.ModeServer, 0, origin, KissRATE), true, ReplyKiss, AssocState{RateStrikes: 1}},
		{"unauthenticated kiss on require-auth", require, reply(ntpwire.ModeServer, 0, origin, KissDENY), true, ReplyKiss, AssocState{}},
		{"authenticated kiss on require-auth", require, sealed(reply(ntpwire.ModeServer, 0, origin, KissDENY)), true, ReplyKiss, AssocState{Dead: true}},
		{"bad MAC", require, badMAC, true, ReplyReject, AssocState{}},
		{"bad MAC without Require", &ClientAuth{Key: key}, badMAC, true, ReplyReject, AssocState{}},
		{"bare reply under Require", require, reply(ntpwire.ModeServer, 2, origin, 0), true, ReplyReject, AssocState{}},
		{"valid reply", nil, reply(ntpwire.ModeServer, 2, origin, 0), true, ReplyOK, AssocState{}},
		{"valid authenticated reply", require, sealed(reply(ntpwire.ModeServer, 2, origin, 0)), true, ReplyOK, AssocState{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st *AssocState
			if tc.state {
				st = new(AssocState)
			}
			var resp ntpwire.Packet
			if got := tc.auth.CheckReply(&resp, tc.payload, origin, st); got != tc.want {
				t.Fatalf("CheckReply = %v, want %v", got, tc.want)
			}
			if st != nil && *st != tc.after {
				t.Errorf("association state %+v, want %+v", *st, tc.after)
			}
			if tc.want == ReplyOK && resp.TransmitTime != origin {
				t.Errorf("accepted reply decoded as %+v", resp)
			}
		})
	}
}

package ntpserver

import (
	"testing"
	"time"

	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// TestServeDatagramAuthZeroAlloc pins the allocation ceiling of the
// authenticated serve path: decode, MAC verify, respond, encode and
// MAC-seal must all run without touching the heap once the caller's
// scratch (ServeState + output buffer) has warmed up. This is the
// per-datagram cost the wirenet read loop pays, so any allocation here
// multiplies by every request the real-socket server handles.
func TestServeDatagramAuthZeroAlloc(t *testing.T) {
	key := ntpauth.Key{ID: 9, Algo: ntpauth.AlgoSHA256, Secret: []byte("alloc-ceiling-secret")}
	tbl, err := ntpauth.NewKeyTable(key)
	if err != nil {
		t.Fatal(err)
	}
	r := NewResponder(Config{Auth: &ntpauth.ServerAuth{Keys: tbl, Require: true}})

	now := time.Unix(1591000000, 0)
	raw := ntpwire.NewClientPacket(now).Encode()
	req, ok := ntpauth.NewMACer(tbl).AppendMAC(raw, key.ID, raw)
	if !ok {
		t.Fatal("AppendMAC failed")
	}
	from := simnet.Addr{IP: simnet.IPv4(10, 0, 0, 1), Port: 40000}

	var st ServeState
	out := make([]byte, 0, 1024)
	// Warm-up: the policy's MACer and hash states are allocated lazily
	// on first use; the steady-state contract starts at request two.
	if out, ok = r.ServeDatagram(out, now, req, &st, from); !ok {
		t.Fatal("warm-up request not answered")
	}

	allocs := testing.AllocsPerRun(200, func() {
		var answered bool
		out, answered = r.ServeDatagram(out, now, req, &st, from)
		if !answered {
			t.Fatal("authenticated request not answered")
		}
	})
	if allocs != 0 {
		t.Fatalf("authenticated serve path allocates %.1f times per request, want 0", allocs)
	}

	// The reply must actually carry a valid MAC — a zero-alloc path that
	// silently stopped sealing would pass the ceiling check vacuously.
	ca := &ntpauth.ClientAuth{Key: key, Require: true}
	if authed, acceptable := ca.VerifyResponse(out); !authed || !acceptable {
		t.Fatalf("sealed reply fails verification (authed=%v acceptable=%v)", authed, acceptable)
	}
}

// TestServeDatagramForeignExtension: a request carrying an extension
// field this stack does not interpret is served when a valid MAC
// trailer covers it, with a sealed reply, and dropped without one.
func TestServeDatagramForeignExtension(t *testing.T) {
	key := ntpauth.Key{ID: 9, Algo: ntpauth.AlgoSHA256, Secret: []byte("foreign-field-secret")}
	tbl, err := ntpauth.NewKeyTable(key)
	if err != nil {
		t.Fatal(err)
	}
	r := NewResponder(Config{Auth: &ntpauth.ServerAuth{Keys: tbl, Require: true}})
	now := time.Unix(1591000000, 0)
	from := simnet.Addr{IP: simnet.IPv4(10, 0, 0, 1), Port: 40000}
	// A 20-byte field of an uninterpreted type: header, then 16 zero bytes.
	field := append(ntpwire.NewClientPacket(now).Encode(), 0x01, 0x04, 0x00, 0x14)
	field = append(field, make([]byte, 16)...)
	ca := &ntpauth.ClientAuth{Key: key, Require: true}

	var st ServeState
	out, ok := r.ServeDatagram(nil, now, ca.SealRequest(append([]byte(nil), field...)), &st, from)
	if !ok {
		t.Fatal("MAC'd request with a foreign field not answered")
	}
	if authed, acceptable := ca.VerifyResponse(out); !authed || !acceptable {
		t.Fatalf("reply fails verification (authed=%v acceptable=%v)", authed, acceptable)
	}
	if _, ok := r.ServeDatagram(out, now, field, &st, from); ok {
		t.Fatal("foreign field without a MAC trailer answered")
	}
}

package wirenet_test

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
	"chronosntp/internal/wirenet"
)

// TestConformanceAuthenticatedResponseBytes extends the byte-level
// transport conformance pin to authenticated serving: MAC-trailered
// requests, arriving at the same (virtual) instants at servers with the
// same keys and policy, must produce bit-identical credential-sealed
// replies from the simnet path and the real-socket path. Both
// transports route through ntpserver.Responder.ServeDatagram, so a
// divergence here means one of them grew its own framing or sealing
// semantics.
func TestConformanceAuthenticatedResponseBytes(t *testing.T) {
	const requests = 6
	interval := 250 * time.Millisecond
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC) // simnet's virtual origin

	macKeys := []ntpauth.Key{
		{ID: 1, Algo: ntpauth.AlgoMD5, Secret: []byte("legacy-md5-secret")},
		{ID: 7, Algo: ntpauth.AlgoSHA256, Secret: []byte("strong-sha256-secret")},
	}

	mustTable := func(keys ...ntpauth.Key) *ntpauth.KeyTable {
		tbl, err := ntpauth.NewKeyTable(keys...)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}

	// mkAuth builds one path's server-side policy. Each transport gets
	// its own instance (the digest scratch is stateful), built from the
	// same key material so sealed replies must agree byte for byte.
	mkAuth := func() *ntpauth.ServerAuth {
		return &ntpauth.ServerAuth{Keys: mustTable(macKeys...), Require: true}
	}

	// macRequests seals the full set of request datagrams up front, so
	// both transports replay the identical bytes.
	macRequests := func(key ntpauth.Key) [][]byte {
		mac := ntpauth.NewMACer(mustTable(key))
		out := make([][]byte, requests)
		for k := range out {
			raw := ntpwire.NewClientPacket(start.Add(time.Duration(k) * interval)).Encode()
			sealed, ok := mac.AppendMAC(raw, key.ID, raw)
			if !ok {
				t.Fatalf("AppendMAC failed for key %d", key.ID)
			}
			out[k] = sealed
		}
		return out
	}

	for _, key := range macKeys {
		t.Run("mac-"+key.Algo.String(), func(t *testing.T) {
			reqs := macRequests(key)
			mkConfig := func(epoch time.Time) ntpserver.Config {
				return ntpserver.Config{
					Clock: clock.New(epoch, -3*time.Millisecond, 0),
					Auth:  mkAuth(),
				}
			}

			// --- simnet path: zero latency, arrival instant == send instant.
			nw := simnet.New(simnet.Config{
				Seed:    9,
				Latency: func(src, dst simnet.IP, rng *rand.Rand) time.Duration { return 0 },
			})
			serverHost, err := nw.AddHost(simnet.IP{203, 0, 113, 1})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := ntpserver.New(serverHost, mkConfig(start))
			if err != nil {
				t.Fatal(err)
			}
			clientHost, err := nw.AddHost(simnet.IP{10, 0, 0, 1})
			if err != nil {
				t.Fatal(err)
			}
			var simReplies [][]byte
			const clientPort = 40000
			if err := clientHost.Listen(clientPort, func(now time.Time, meta simnet.Meta, payload []byte) {
				simReplies = append(simReplies, append([]byte(nil), payload...))
			}); err != nil {
				t.Fatal(err)
			}
			for k := range reqs {
				req := reqs[k]
				nw.After(time.Duration(k)*interval, func() {
					if err := clientHost.SendUDP(clientPort, srv.Addr(), req); err != nil {
						t.Errorf("sim send: %v", err)
					}
				})
			}
			nw.RunFor(time.Duration(requests)*interval + time.Second)
			if len(simReplies) != requests {
				t.Fatalf("sim path: got %d replies, want %d", len(simReplies), requests)
			}

			// --- wire path: one listener replaying the same arrival
			// instants through an injected deterministic clock.
			served := 0
			wireNow := func() time.Time {
				now := start.Add(time.Duration(served) * interval)
				served++
				return now
			}
			wsrv, err := wirenet.Serve(wirenet.ServerConfig{
				Listeners: 1,
				Responder: ntpserver.NewResponder(mkConfig(start)),
				Now:       wireNow,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer wsrv.Close()
			conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(wsrv.AddrPort()))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			ca := &ntpauth.ClientAuth{Key: key, Require: true}
			var buf [1024]byte
			for k := range reqs {
				if _, err := conn.Write(reqs[k]); err != nil {
					t.Fatal(err)
				}
				if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
					t.Fatal(err)
				}
				n, err := conn.Read(buf[:])
				if err != nil {
					t.Fatalf("wire reply %d: %v", k, err)
				}
				if !bytes.Equal(buf[:n], simReplies[k]) {
					t.Fatalf("reply %d differs between transports:\n  sim:  %x\n  wire: %x", k, simReplies[k], buf[:n])
				}
				if len(buf[:n]) <= ntpwire.PacketSize {
					t.Fatalf("reply %d carries no credentials (%d bytes)", k, n)
				}
				if authed, acceptable := ca.VerifyResponse(buf[:n]); !authed || !acceptable {
					t.Fatalf("reply %d fails client-side verification (authed=%v acceptable=%v)", k, authed, acceptable)
				}
			}

			// A credential-stripped request must be refused by both paths
			// under Require (silent drop, no crypto-NAK oracle).
			bare := ntpwire.NewClientPacket(start.Add(time.Hour)).Encode()
			if err := clientHost.SendUDP(clientPort, srv.Addr(), bare); err != nil {
				t.Fatal(err)
			}
			nw.RunFor(time.Second)
			// A Require policy answers bare requests with an
			// (unauthenticated) DENY kiss rather than time.
			if len(simReplies) != requests+1 {
				t.Fatalf("sim path: bare request produced %d replies, want one DENY kiss", len(simReplies)-requests)
			}
			var kiss ntpwire.Packet
			if err := ntpwire.DecodeInto(&kiss, simReplies[requests]); err != nil {
				t.Fatal(err)
			}
			if !ntpauth.IsKoD(&kiss) || ntpauth.Code(&kiss) != ntpauth.KissDENY {
				t.Fatalf("bare request answered with non-DENY reply: %+v", kiss)
			}
		})
	}
}

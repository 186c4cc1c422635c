package ntpclient

import (
	"encoding/binary"
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// FuzzExchange answers an in-flight Exchange with one arbitrary
// datagram: garbage, kisses, MAC trailers, echoed and stale origins.
// flags bit 0 writes the request's transmit time into the datagram's
// origin field, bit 1 appends a MAC trailer under the client's key, bit
// 2 passes a KoD state and bit 3 a require-auth policy. cb must fire
// exactly once; ok, and the Replies counted, must match what CheckReply
// makes of the datagram; nothing may panic; and the port must be free
// afterwards.
func FuzzExchange(f *testing.F) {
	key := ntpauth.Key{ID: 3, Algo: ntpauth.AlgoSHA256, Secret: []byte("fuzz-exchange")}
	table, err := ntpauth.NewKeyTable(key)
	if err != nil {
		f.Fatal(err)
	}
	t1 := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	good := (&ntpwire.Packet{Version: ntpwire.Version, Mode: ntpwire.ModeServer, Stratum: 2,
		ReceiveTime: ntpwire.TimestampFromTime(t1), TransmitTime: ntpwire.TimestampFromTime(t1)}).Encode()
	var kiss ntpwire.Packet
	ntpauth.FillKoD(&kiss, ntpauth.KissDENY, ntpwire.NewClientPacket(t1), t1)
	sealed, _ := ntpauth.NewMACer(table).AppendMAC(good, key.ID, good)
	for flags := uint8(0); flags < 16; flags++ {
		f.Add(good, flags)
		f.Add(kiss.Encode(), flags)
		f.Add(sealed, flags)
		f.Add([]byte{0x24}, flags)
	}

	srvIP := simnet.IPv4(66, 0, 0, 1)
	server := simnet.Addr{IP: srvIP, Port: ntpwire.Port}
	f.Fuzz(func(t *testing.T, data []byte, flags uint8) {
		if len(data) > 512 {
			data = data[:512] // keep the reply one unfragmented datagram
		}
		n := simnet.New(simnet.Config{Seed: 1})
		srv, err := n.AddHost(srvIP)
		if err != nil {
			t.Fatal(err)
		}
		var (
			served bool
			sent   []byte
			origin ntpwire.Timestamp
			from   simnet.Addr
		)
		if err := srv.Listen(ntpwire.Port, func(_ time.Time, meta simnet.Meta, payload []byte) {
			var req ntpwire.Packet
			if err := ntpwire.DecodeInto(&req, payload); err != nil {
				t.Fatalf("undecodable request: %v", err)
			}
			served, origin, from = true, req.TransmitTime, meta.From
			sent = append([]byte(nil), data...)
			if flags&1 != 0 && len(sent) >= ntpwire.PacketSize {
				binary.BigEndian.PutUint64(sent[24:32], uint64(origin))
			}
			if flags&2 != 0 {
				sent, _ = ntpauth.NewMACer(table).AppendMAC(sent, key.ID, sent)
			}
			if err := srv.SendUDP(ntpwire.Port, meta.From, sent); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		cli, err := n.AddHost(clientIP)
		if err != nil {
			t.Fatal(err)
		}
		// mk builds the policy and KoD state; the check below replays the
		// datagram against an identical twin.
		mk := func() (*ntpauth.ClientAuth, *ntpauth.AssocState) {
			var auth *ntpauth.ClientAuth
			if flags&8 != 0 {
				auth = &ntpauth.ClientAuth{Key: key, Require: true}
			}
			if flags&4 != 0 {
				return auth, new(ntpauth.AssocState)
			}
			return auth, nil
		}
		auth, kod := mk()
		var (
			got   Replies
			buf   []byte
			calls int
			ok    bool
		)
		Exchange(cli, &clock.Clock{}, server, auth, kod, time.Second, &buf, &got, func(_, _ time.Duration, k bool) {
			calls++
			ok = k
		})
		n.RunFor(2 * time.Second)

		if calls != 1 {
			t.Fatalf("cb fired %d times, want once", calls)
		}
		if !served {
			t.Fatal("the request never reached the server")
		}
		twinAuth, twinKoD := mk()
		var resp ntpwire.Packet
		verdict := twinAuth.CheckReply(&resp, sent, origin, twinKoD)
		if ok != (verdict == ntpauth.ReplyOK) {
			t.Fatalf("ok = %v for a datagram CheckReply classifies as %d", ok, verdict)
		}
		var want Replies
		switch verdict {
		case ntpauth.ReplyKiss:
			want.KoDKisses = 1
			if !twinKoD.Usable() {
				want.Demobilized = 1
			}
		case ntpauth.ReplyReject:
			want.AuthRejects = 1
		}
		if got != want {
			t.Fatalf("Replies = %+v, want %+v", got, want)
		}
		if cli.Close(from.Port) {
			t.Fatalf("port %d still bound after the exchange", from.Port)
		}
	})
}

package attack

import (
	"bytes"
	"testing"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/simnet"
)

// mitmKey is the shared client↔server MAC credential for the arms-race
// scenarios below.
var mitmKey = ntpauth.Key{ID: 7, Algo: ntpauth.AlgoSHA256, Secret: []byte("ntpmitm-test-secret")}

// keyedNTPFarm builds count honest MAC-keyed NTP servers inside base's
// /24 (the prefix the MitM intercepts). The servers still answer
// unauthenticated requests — the client's policy decides what counts.
func keyedNTPFarm(t *testing.T, n *simnet.Network, base simnet.IP, count int) []simnet.IP {
	t.Helper()
	ips := make([]simnet.IP, 0, count)
	for i := 0; i < count; i++ {
		ip := simnet.IPv4(base[0], base[1], base[2], byte(int(base[3])+i))
		host, err := n.AddHost(ip)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := ntpauth.NewKeyTable(mitmKey)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ntpserver.New(host, ntpserver.Config{
			Clock: clock.New(n.Now(), time.Duration(i%5-2)*time.Millisecond, 0),
			Auth:  &ntpauth.ServerAuth{Keys: tbl},
		}); err != nil {
			t.Fatal(err)
		}
		ips = append(ips, ip)
	}
	return ips
}

// mitmClient builds a chronos client (15 ms initial clock offset) with
// the given auth policy, seeded with ips.
func mitmClient(t *testing.T, n *simnet.Network, auth *chronos.AuthPolicy, ips []simnet.IP) *chronos.Client {
	t.Helper()
	ch, err := n.AddHost(simnet.IPv4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	cli := chronos.New(ch, clock.New(n.Now(), 15*time.Millisecond, 0), nil, chronos.Config{SampleSize: 9, Auth: auth})
	if err := cli.SeedPool(ips); err != nil {
		t.Fatal(err)
	}
	return cli
}

func requireMAC() *chronos.AuthPolicy {
	ca := &ntpauth.ClientAuth{Key: mitmKey, Require: true}
	return &chronos.AuthPolicy{ForServer: func(simnet.IP) *ntpauth.ClientAuth { return ca }}
}

// TestNTPMitMMACStrip is the strip-and-tamper arms race on the wire: the
// MitM rewrites every reply to "client clock + 25 ms" and drops the MAC.
// A client that accepts unauthenticated replies is marched off at full
// greedy speed; a require-auth client rejects every stripped reply and
// its clock never moves.
func TestNTPMitMMACStrip(t *testing.T) {
	run := func(auth *chronos.AuthPolicy) (chronos.Stats, time.Duration, *NTPMitM) {
		n := simnet.New(simnet.Config{Seed: 301})
		ips := keyedNTPFarm(t, n, simnet.IPv4(203, 0, 113, 1), 30)
		mitm := NewNTPMitM(n, simnet.IPv4(203, 0, 113, 0), 24, MitMMACStrip)
		mitm.Announce()
		cli := mitmClient(t, n, auth, ips)
		n.RunFor(40 * time.Minute)
		return cli.Stats(), cli.Offset(), mitm
	}

	st, off, mitm := run(nil)
	if mitm.Tampered == 0 {
		t.Fatal("MitM tampered nothing")
	}
	if st.Updates == 0 {
		t.Fatal("lax client applied no updates")
	}
	if off < 500*time.Millisecond {
		t.Fatalf("lax client offset = %v, want > 500ms (25ms march per sync round)", off)
	}

	st, off, mitm = run(requireMAC())
	if mitm.Tampered == 0 {
		t.Fatal("MitM tampered nothing on the require-auth run")
	}
	if st.AuthRejects == 0 {
		t.Fatal("require-auth client rejected no stripped replies")
	}
	if st.Updates != 0 || st.PanicUpdates != 0 {
		t.Fatalf("require-auth client applied %d/%d updates from stripped replies", st.Updates, st.PanicUpdates)
	}
	if off < -30*time.Millisecond || off > 30*time.Millisecond {
		t.Errorf("require-auth client offset = %v, want untouched (~15ms initial)", off)
	}
}

// TestNTPMitMForgeKoD pins the forged-KoD asymmetry at packet fidelity:
// the MitM swallows every request into the prefix and answers with an
// unauthenticated DENY kiss. Compliance demobilizes the unauthenticated
// client's pool; the require-auth client discards the kisses (RFC 8915
// §5.7) and keeps its associations — though the on-path drop still
// starves it of genuine samples.
func TestNTPMitMForgeKoD(t *testing.T) {
	run := func(auth *chronos.AuthPolicy) (chronos.Stats, int, *NTPMitM) {
		n := simnet.New(simnet.Config{Seed: 302})
		ips := keyedNTPFarm(t, n, simnet.IPv4(203, 0, 113, 1), 30)
		mitm := NewNTPMitM(n, simnet.IPv4(203, 0, 113, 0), 24, MitMForgeKoD)
		mitm.Announce()
		cli := mitmClient(t, n, auth, ips)
		n.RunFor(40 * time.Minute)
		return cli.Stats(), cli.UsableServers(), mitm
	}

	// KoD-compliant but unauthenticated: every forged kiss is believed.
	st, usable, mitm := run(&chronos.AuthPolicy{})
	if mitm.Kisses == 0 || st.KoDKisses == 0 {
		t.Fatalf("no kisses forged/seen (%d/%d)", mitm.Kisses, st.KoDKisses)
	}
	if st.Demobilized == 0 {
		t.Fatal("forged DENY kisses demobilized nothing")
	}
	if usable >= 30 {
		t.Fatalf("usable servers = %d, want < 30 after forged DENY", usable)
	}
	if st.Updates != 0 {
		t.Fatalf("client applied %d updates though every request was swallowed", st.Updates)
	}

	// Require-auth: the kisses are origin-valid but unauthenticated, so
	// the associations survive. The move degrades to starvation — the
	// MitM still eats the requests — but never to demobilization.
	st, usable, _ = run(requireMAC())
	if st.KoDKisses == 0 {
		t.Fatal("require-auth client saw no kisses")
	}
	if st.Demobilized != 0 {
		t.Fatalf("require-auth client believed %d forged kisses", st.Demobilized)
	}
	if usable != 30 {
		t.Fatalf("usable servers = %d, want all 30", usable)
	}
	if st.Updates != 0 {
		t.Fatalf("client applied %d updates though every request was swallowed", st.Updates)
	}
}

// TestNTPMitMCookieReplay runs the replay move against NTS sessions: the
// MitM records each server's first sealed reply and serves the stale
// copy forever after. The origin/unique-identifier binding makes every
// replay fail verification, so the client starves after the first
// genuine exchange per server — but its clock is never shifted. The
// control run (tap withdrawn) pins that the starvation is the MitM's
// doing, not the NTS stack's.
func TestNTPMitMCookieReplay(t *testing.T) {
	master := bytes.Repeat([]byte{0x5a}, 32)
	const servers = 12

	run := func(announce bool) (chronos.Stats, time.Duration, *NTPMitM) {
		n := simnet.New(simnet.Config{Seed: 303})
		ips := make([]simnet.IP, 0, servers)
		sessions := make(map[simnet.IP]*ntpauth.ClientAuth, servers)
		for i := 0; i < servers; i++ {
			ip := simnet.IPv4(203, 0, 113, byte(1+i))
			host, err := n.AddHost(ip)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := ntpauth.NewNTSServer(master)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ntpserver.New(host, ntpserver.Config{
				Clock: clock.New(n.Now(), time.Duration(i%5-2)*time.Millisecond, 0),
				Auth:  &ntpauth.ServerAuth{NTS: srv, Require: true},
			}); err != nil {
				t.Fatal(err)
			}
			// Key establishment against a scratch instance sharing the
			// master key stands in for the NTS-KE channel (the serving
			// instance can open any cookie minted under the same master).
			scratch, err := ntpauth.NewNTSServer(master)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := ntpauth.Establish(scratch, int64(1000+i), 256)
			if err != nil {
				t.Fatal(err)
			}
			sessions[ip] = &ntpauth.ClientAuth{NTS: sess, Require: true}
			ips = append(ips, ip)
		}
		mitm := NewNTPMitM(n, simnet.IPv4(203, 0, 113, 0), 24, MitMCookieReplay)
		if announce {
			mitm.Announce()
		}
		cli := mitmClient(t, n, &chronos.AuthPolicy{
			ForServer: func(ip simnet.IP) *ntpauth.ClientAuth { return sessions[ip] },
		}, ips)
		n.RunFor(40 * time.Minute)
		return cli.Stats(), cli.Offset(), mitm
	}

	control, _, _ := run(false)
	if control.Updates < 20 {
		t.Fatalf("control NTS client applied only %d updates", control.Updates)
	}

	st, off, mitm := run(true)
	if mitm.Recorded == 0 || mitm.Replayed == 0 {
		t.Fatalf("MitM recorded/replayed %d/%d replies", mitm.Recorded, mitm.Replayed)
	}
	if st.Updates > 4 {
		t.Fatalf("client applied %d updates under replay, want starvation after the first genuine round(s)", st.Updates)
	}
	if off < -30*time.Millisecond || off > 30*time.Millisecond {
		t.Errorf("offset = %v, want ~0 — replay must starve, not shift", off)
	}
}

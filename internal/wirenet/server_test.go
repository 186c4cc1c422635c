package wirenet

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// exchangeOnce is a minimal raw client: one request, one validated reply.
func exchangeOnce(t *testing.T, ap netip.AddrPort, timeout time.Duration) (*ntpwire.Packet, error) {
	t.Helper()
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(ap))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	t1 := time.Now()
	if _, err := conn.Write(ntpwire.NewClientPacket(t1).Encode()); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		t.Fatal(err)
	}
	var buf [readBufSize]byte
	n, err := conn.Read(buf[:])
	if err != nil {
		return nil, err
	}
	resp := new(ntpwire.Packet)
	if err := ntpwire.DecodeInto(resp, buf[:n]); err != nil {
		t.Fatalf("undecodable reply: %v", err)
	}
	if !ntpwire.ValidServerResponse(resp, ntpwire.TimestampFromTime(t1)) {
		t.Fatalf("invalid reply: %+v", resp)
	}
	return resp, nil
}

func TestServeAnswersRequest(t *testing.T) {
	srv, err := Serve(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := exchangeOnce(t, srv.AddrPort(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stratum != 2 || resp.Mode != ntpwire.ModeServer {
		t.Fatalf("unexpected reply: stratum=%d mode=%d", resp.Stratum, resp.Mode)
	}
	// The read loop counts a request only after writing its reply, which
	// the client may already have read; Close waits for the read loops.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.Served() != 1 {
		t.Fatalf("served=%d, want 1", srv.Served())
	}
}

// TestExchangeReadsCorrectionOnce: a Step that lands between an
// exchange's transmit and receive timestamps does not move the offset it
// measures. Both clocks stand still at one instant, so the offset is
// half the server's processing delay (5 µs), and Base steps the client by
// +1 s on its first reading, right after the correction for t1 is read.
// Reading the correction again at t4 made the exchange measure −500 ms.
func TestExchangeReadsCorrectionOnce(t *testing.T) {
	at := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	srv, err := Serve(ServerConfig{Listeners: 1, Now: func() time.Time { return at }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := &UDPTransport{}
	tr.Base = func() time.Time {
		if tr.Correction() == 0 {
			tr.Step(time.Second)
		}
		return at
	}
	off, err := tr.Exchange(srv.AddrPort(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if off < -time.Millisecond || off > time.Millisecond {
		t.Fatalf("a mid-exchange Step moved the measured offset to %v, want about 5µs", off)
	}
	if tr.Correction() != time.Second {
		t.Fatalf("correction %v, want the 1 s step", tr.Correction())
	}
}

// TestServeOneAllocFree pins the serve path's performance contract: once
// the socket is warm, answering a request allocates nothing.
func TestServeOneAllocFree(t *testing.T) {
	srv, err := Serve(ServerConfig{Listeners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	from := client.LocalAddr().(*net.UDPAddr).AddrPort()

	var st ntpserver.ServeState
	out := make([]byte, 0, readBufSize)
	req := ntpwire.NewClientPacket(time.Unix(1591000000, 0)).Encode()
	serve := func() {
		var ok bool
		if out, ok = srv.serveOne(&st, out, req, from); !ok {
			t.Fatal("request not answered")
		}
	}
	serve() // absorb the socket's first-write lazy allocations
	if allocs := testing.AllocsPerRun(100, serve); allocs != 0 {
		t.Fatalf("serveOne allocates %.2f objects/op, want 0", allocs)
	}
}

func TestServeDropsMalformed(t *testing.T) {
	srv, err := Serve(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(srv.AddrPort()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Garbage lengths and a non-client mode must be discarded silently.
	for _, payload := range [][]byte{nil, {0x23}, make([]byte, 47), ntpwire.NewClientPacket(time.Now()).Encode()[:40]} {
		if _, err := conn.Write(payload); err != nil && len(payload) > 0 {
			t.Fatal(err)
		}
	}
	mode4 := &ntpwire.Packet{Version: 4, Mode: ntpwire.ModeServer}
	if _, err := conn.Write(mode4.Encode()); err != nil {
		t.Fatal(err)
	}
	// The server must still be alive and answering after the garbage.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := exchangeOnce(t, srv.AddrPort(), 200*time.Millisecond); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server stopped answering after malformed datagrams")
		}
	}
	if srv.Dropped() == 0 {
		t.Fatal("malformed datagrams were not counted as dropped")
	}
}

// TestWireServeConcurrent hammers one server from 64 goroutines — the
// race/soak test the CI race job runs. In -short mode each goroutine
// sends a handful of requests; the full soak sends a few thousand total.
func TestWireServeConcurrent(t *testing.T) {
	srv, err := Serve(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const goroutines = 64
	perG := 100
	if testing.Short() {
		perG = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(srv.AddrPort()))
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			var buf [readBufSize]byte
			var resp ntpwire.Packet
			for i := 0; i < perG; i++ {
				t1 := time.Now()
				if _, err := conn.Write(ntpwire.NewClientPacket(t1).Encode()); err != nil {
					errs <- err
					return
				}
				if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
					errs <- err
					return
				}
				n, err := conn.Read(buf[:])
				if err != nil {
					errs <- err
					return
				}
				if err := ntpwire.DecodeInto(&resp, buf[:n]); err != nil {
					errs <- err
					return
				}
				if !ntpwire.ValidServerResponse(&resp, ntpwire.TimestampFromTime(t1)) {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // count the last replies; see TestServeAnswersRequest
		t.Fatal(err)
	}
	if want := uint64(goroutines * perG); srv.Served() != want {
		t.Fatalf("served=%d, want %d", srv.Served(), want)
	}
}

// gateStrategy blocks inside the responder until released, so the test
// can hold a request in-flight across a Close call.
type gateStrategy struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gateStrategy) Shift(time.Time, *ntpwire.Packet, simnet.Addr) time.Duration {
	g.entered <- struct{}{}
	<-g.release
	return 0
}

// TestCloseDrainsInFlight proves the drain guarantee: a request already
// read from the socket when Close begins still gets its response before
// the socket goes down.
func TestCloseDrainsInFlight(t *testing.T) {
	gate := &gateStrategy{entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := Serve(ServerConfig{
		Listeners: 1,
		Responder: ntpserver.NewResponder(ntpserver.Config{Strategy: gate}),
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(srv.AddrPort()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	t1 := time.Now()
	if _, err := conn.Write(ntpwire.NewClientPacket(t1).Encode()); err != nil {
		t.Fatal(err)
	}
	<-gate.entered // the listener has read the packet and is mid-response

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Give Close a moment to begin the drain, then let the handler finish.
	time.Sleep(50 * time.Millisecond)
	close(gate.release)

	if err := conn.SetReadDeadline(time.Now().Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var buf [readBufSize]byte
	n, err := conn.Read(buf[:])
	if err != nil {
		t.Fatalf("in-flight request was dropped during Close: %v", err)
	}
	var resp ntpwire.Packet
	if err := ntpwire.DecodeInto(&resp, buf[:n]); err != nil || !ntpwire.ValidServerResponse(&resp, ntpwire.TimestampFromTime(t1)) {
		t.Fatalf("drained response invalid: %v %+v", err, resp)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if srv.Served() != 1 {
		t.Fatalf("served=%d, want 1", srv.Served())
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv, err := Serve(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != ErrServerClosed {
		t.Fatalf("second Close = %v, want ErrServerClosed", err)
	}
}

package main

import (
	"bytes"
	"flag"
	"net/netip"
	"strings"
	"testing"
	"time"

	"chronosntp/internal/wirenet"
)

func TestUsageCoversAllFlags(t *testing.T) {
	var o options
	fs := newFlagSet(&o)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Usage()
	help := buf.String()
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(help, "-"+f.Name) {
			t.Errorf("usage text omits registered flag -%s", f.Name)
		}
	})
	for _, want := range []string{"-listen", "-servers", "-malicious", "-shift", "-duration"} {
		if !strings.Contains(help, want) {
			t.Errorf("usage text missing %s", want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(&strings.Builder{}, []string{"-h"}); err != nil {
		t.Fatalf("-h should exit cleanly, got %v", err)
	}
	if err := run(&strings.Builder{}, []string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag was accepted")
	}
	for _, args := range [][]string{
		{"-listen", "127.0.0.1:0", "-servers", "0"},
		{"-listen", "127.0.0.1:0", "-servers", "2", "-malicious", "3"},
		{"-listen", "127.0.0.1:0", "-malicious", "-1"},
		{"-listen", "127.0.0.1:0", "-duration", "-1s"},
		{"-listen", "not an address", "-duration", "50ms"},
		{"-inventory", "-1"},
		{"-inventory", "0"},
		{"-inventory", "64001"},
		{"-hours", "0"},
		{"-hours", "-3"},
		// 2·err overflowed the farm's clock-error draw and panicked.
		{"-listen", "127.0.0.1:0", "-servers", "2", "-err", "2000000h", "-duration", "50ms"},
		// Served perfect clocks without saying so.
		{"-listen", "127.0.0.1:0", "-err", "-1ms", "-duration", "50ms"},
		// Flags the chosen mode ignores.
		{"-servers", "4"},
		{"-malicious", "1"},
		{"-shift", "1s"},
		{"-err", "1ms"},
		{"-seed", "2"},
		{"-duration", "1s"},
		{"-listen", "127.0.0.1:0", "-inventory", "40", "-duration", "50ms"},
		{"-listen", "127.0.0.1:0", "-hours", "3", "-duration", "50ms"},
	} {
		if err := run(&strings.Builder{}, args); err == nil {
			t.Fatalf("bad flags %v were silently accepted", args)
		}
	}
}

// TestTraceSmoke runs the original rotation trace.
func TestTraceSmoke(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-inventory", "40", "-hours", "3"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hour  0:", "hour  2:", "accumulated"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("trace output missing %q:\n%s", want, out.String())
		}
	}
}

// TestServeSmoke boots a short-lived mixed farm over real loopback
// sockets through the CLI path and checks the endpoint banner lines.
func TestServeSmoke(t *testing.T) {
	var out strings.Builder
	err := run(&out, []string{
		"-listen", "127.0.0.1:0", "-servers", "3", "-malicious", "1",
		"-shift", "200ms", "-duration", "100ms", "-seed", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if n := strings.Count(got, "serving ntp on 127.0.0.1:"); n != 3 {
		t.Fatalf("got %d endpoint banners, want 3:\n%s", n, got)
	}
	if strings.Count(got, "(honest, offset ") != 2 || strings.Count(got, "(malicious, shift 200ms)") != 1 {
		t.Fatalf("farm composition not reflected in banners:\n%s", got)
	}
	if !strings.Contains(got, "served ") {
		t.Fatalf("missing served-requests summary:\n%s", got)
	}
}

// TestServeAnswersRealQueries starts the farm through the CLI in the
// background and exercises it with a real wirenet exchange while it is
// serving — the loopback smoke run the issue asks for.
func TestServeAnswersRealQueries(t *testing.T) {
	// The CLI prints banners before sleeping, so feed it a pipe-like
	// writer that hands the endpoint to the querying side.
	addrCh := make(chan string, 4)
	w := &lineScanner{lines: addrCh}
	done := make(chan error, 1)
	go func() {
		done <- run(w, []string{
			"-listen", "127.0.0.1:0", "-servers", "1", "-duration", "2s", "-err", "0s", "-seed", "9",
		})
	}()

	var endpoint string
	select {
	case line := <-addrCh:
		fields := strings.Fields(line) // "serving ntp on <addr> (honest, ...)"
		endpoint = fields[3]
	case err := <-done:
		t.Fatalf("serve exited before printing a banner: %v", err)
	}

	tr := &wirenet.UDPTransport{}
	ap, err := netip.ParseAddrPort(endpoint)
	if err != nil {
		t.Fatalf("banner endpoint %q unparsable: %v", endpoint, err)
	}
	off, err := tr.Exchange(ap, time.Second)
	if err != nil {
		t.Fatalf("live farm did not answer: %v", err)
	}
	if off < -time.Millisecond || off > time.Millisecond {
		t.Fatalf("perfect-clock server measured at offset %v", off)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// lineScanner forwards "serving ntp on" banner lines to a channel as
// they are written.
type lineScanner struct {
	buf   strings.Builder
	lines chan string
}

func (l *lineScanner) Write(p []byte) (int, error) {
	l.buf.Write(p)
	for {
		s := l.buf.String()
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := s[:i]
		l.buf.Reset()
		l.buf.WriteString(s[i+1:])
		if strings.HasPrefix(line, "serving ntp on ") {
			select {
			case l.lines <- line:
			default:
			}
		}
	}
}

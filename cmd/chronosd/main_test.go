package main

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"chronosntp/internal/wirenet/interoptest"
)

// TestUsageCoversAllFlags regenerates the help text from the flag set
// and asserts every registered flag appears in it, so the wire-mode
// flags can never silently fall out of -help.
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
	for _, want := range []string{"-upstream", "-rounds", "-timeout"} {
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
		{"-upstream", "127.0.0.1:123", "-attack"},
		{"-upstream", "127.0.0.1:123", "-rounds", "0"},
		{"-upstream", "127.0.0.1:123", "-timeout", "-1s"},
		{"-upstream", "not-an-endpoint"},
		{"-upstream", " , ,"},
		{"-attack", "-poison-query", "-5"},
		{"-attack", "-poison-query", "0"},
		{"-attack", "-poison-query", "25"},
		{"-sync", "-1h"},
	} {
		if err := run(&strings.Builder{}, args); err == nil {
			t.Fatalf("bad flags %v were silently accepted", args)
		}
	}
	if err := run(&strings.Builder{}, []string{"-upstream", "127.0.0.1:123", "-attack"}); err == nil ||
		!strings.Contains(err.Error(), "wire mode") {
		t.Fatal("-attack with -upstream should explain the conflict")
	}
}

// TestSimSmoke runs the original simulated pipeline end to end with a
// short sync phase.
func TestSimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full pool generation in -short mode")
	}
	var out strings.Builder
	if err := run(&out, []string{"-seed", "2", "-sync", "30m"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pool generation", "chronos clock error", "classic-ntp clock error"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("sim output missing %q:\n%s", want, out.String())
		}
	}
}

// TestWireSmoke points wire mode at a real loopback farm and checks the
// rounds run and report a correction.
func TestWireSmoke(t *testing.T) {
	farm, err := interoptest.StartFarm(interoptest.FarmConfig{
		Honest:    4,
		HonestErr: 10 * time.Millisecond,
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	endpoints := make([]string, len(farm.Pool))
	for i, ap := range farm.Pool {
		endpoints[i] = ap.String()
	}

	var out strings.Builder
	err = run(&out, []string{
		"-upstream", strings.Join(endpoints, ","),
		"-rounds", "2", "-timeout", "500ms", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"wire mode, 4 upstreams", "round 1:", "round 2:", "correction:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("wire output missing %q:\n%s", want, got)
		}
	}
	if farm.TotalServed() == 0 {
		t.Fatal("wire mode reported rounds but the farm served nothing")
	}
	// Both rounds must have accepted against an honest farm.
	if strings.Contains(got, "PANIC") || strings.Contains(got, "no update") {
		t.Fatalf("honest farm rounds did not all apply:\n%s", got)
	}
}

// TestWireSmallPoolScalesRule checks the m parameter is capped at the
// pool size so tiny upstream lists remain satisfiable.
func TestWireSmallPoolScalesRule(t *testing.T) {
	farm, err := interoptest.StartFarm(interoptest.FarmConfig{Honest: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	endpoints := make([]string, len(farm.Pool))
	for i, ap := range farm.Pool {
		endpoints[i] = ap.String()
	}
	var out strings.Builder
	if err := run(&out, []string{"-upstream", strings.Join(endpoints, ","), "-rounds", "1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("m=%d", len(farm.Pool))) {
		t.Fatalf("sample size not scaled to the %d-member pool:\n%s", len(farm.Pool), out.String())
	}
}

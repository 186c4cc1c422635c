// Command chronosd runs a Chronos client. By default it syncs against a
// simulated internet and prints its pool-generation progress and clock
// error over time; with -attack, the paper's defragmentation poisoning
// is mounted at the given pool-generation query.
//
// With -upstream, chronosd instead disciplines its clock over real UDP:
// it runs the same chronos.Rule sampling and C1/C2 acceptance against a
// comma-separated list of NTP endpoints (for example a loopback farm
// started with poolsrv -listen) and reports the per-round decisions.
// Each mode refuses the other's flags, and -poison-query needs -attack.
//
// Usage:
//
//	chronosd [-seed N] [-attack] [-poison-query 12] [-sync 2h]
//	chronosd -upstream 127.0.0.1:4460,127.0.0.1:4461 [-rounds 3] [-timeout 1s]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/core"
	"chronosntp/internal/wirenet"
)

type options struct {
	seed        int64
	attack      bool
	poisonQuery int
	sync        time.Duration

	upstream string
	rounds   int
	timeout  time.Duration
}

func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("chronosd", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed (simulation and wire-mode sampling)")
	fs.BoolVar(&o.attack, "attack", false, "mount the defragmentation poisoning attack (simulation only)")
	fs.IntVar(&o.poisonQuery, "poison-query", 12, "pool-generation query the poisoning targets")
	fs.DurationVar(&o.sync, "sync", 2*time.Hour, "synchronisation phase duration after pool generation")
	fs.StringVar(&o.upstream, "upstream", "", "comma-separated NTP endpoints (host:port); sync over real UDP instead of the simulator")
	fs.IntVar(&o.rounds, "rounds", 3, "wire mode: synchronisation rounds to run")
	fs.DurationVar(&o.timeout, "timeout", time.Second, "wire mode: per-server query timeout")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "chronosd — Chronos client: simulated internet or real UDP upstreams")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Usage:")
		fmt.Fprintln(w, "  chronosd [-seed N] [-attack] [-poison-query 12] [-sync 2h]")
		fmt.Fprintln(w, "  chronosd -upstream addr,addr,... [-rounds 3] [-timeout 1s]")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Flags:")
		fs.PrintDefaults()
	}
	return fs
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chronosd:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	// Each mode refuses the flags only the other one reads, rather than
	// silently ignoring them.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	ignored, why := []string{"rounds", "timeout"}, "applies to wire mode; it needs -upstream"
	if o.upstream != "" {
		ignored, why = []string{"attack", "poison-query", "sync"}, "applies to the simulated pipeline; it cannot be combined with -upstream (wire mode)"
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s %s", name, why)
		}
	}
	if set["poison-query"] && !o.attack {
		return errors.New("-poison-query names the query the poisoning targets; it needs -attack")
	}
	if o.upstream != "" {
		if o.rounds < 1 {
			return fmt.Errorf("-rounds must be at least 1, got %d", o.rounds)
		}
		if o.timeout <= 0 {
			return fmt.Errorf("-timeout must be positive, got %v", o.timeout)
		}
		return runWire(w, &o)
	}
	if o.attack && o.poisonQuery == 0 {
		// core.Config reads a zero PoisonQuery as its default query.
		return errors.New("-poison-query counts from 1; 0 names no query")
	}
	return runSim(w, &o)
}

// runWire disciplines the local (virtual) clock against real UDP
// endpoints using the chronos rule.
func runWire(w io.Writer, o *options) error {
	var pool []netip.AddrPort
	for _, a := range strings.Split(o.upstream, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		ap, err := netip.ParseAddrPort(a)
		if err != nil {
			return fmt.Errorf("-upstream %q: %w", a, err)
		}
		pool = append(pool, ap)
	}
	if len(pool) == 0 {
		return errors.New("-upstream lists no endpoints")
	}

	// Scale the paper's m=15 down to small hand-fed pools so the rule
	// stays satisfiable (defaults assume a pool in the hundreds).
	ccfg := chronos.Config{QueryTimeout: o.timeout}
	if len(pool) < 15 {
		ccfg.SampleSize = len(pool)
	}

	tr := &wirenet.UDPTransport{}
	sy, err := wirenet.NewSyncer(tr, wirenet.SyncerConfig{Pool: pool, Seed: o.seed, Chronos: ccfg})
	if err != nil {
		return err
	}
	cfg := sy.Config()
	fmt.Fprintf(w, "chronosd: wire mode, %d upstreams, m=%d d=%d K=%d\n",
		len(pool), cfg.SampleSize, cfg.Trim, cfg.Retries)
	for r := 0; r < o.rounds; r++ {
		trace := sy.SyncRound()
		switch {
		case trace.Panicked && trace.Applied:
			fmt.Fprintf(w, "round %d: PANIC applied %v after %d failed attempts\n", r+1, trace.Update, len(trace.Attempts))
		case trace.Panicked:
			fmt.Fprintf(w, "round %d: PANIC with too few replies, clock untouched\n", r+1)
		case trace.Applied:
			fmt.Fprintf(w, "round %d: applied %v (attempt %d, %d replies)\n",
				r+1, trace.Update, len(trace.Attempts), trace.Replies[len(trace.Replies)-1])
		default:
			fmt.Fprintf(w, "round %d: no update\n", r+1)
		}
	}
	st := sy.Stats()
	fmt.Fprintf(w, "correction: %v over %d rounds (updates %d, resamples %d, panics %d)\n",
		sy.Correction(), st.Rounds, st.Updates, st.Resamples, st.Panics)
	return nil
}

// runSim is the original simulated pipeline: 24-hour pool generation
// (optionally poisoned) followed by a synchronisation phase. core.Config's
// Validate checks the flag values.
func runSim(w io.Writer, o *options) error {
	cfg := core.Config{
		Seed:         o.seed,
		SyncDuration: o.sync,
		RunPlainNTP:  true,
	}
	if o.attack {
		cfg.Mechanism = core.Defrag
		cfg.PoisonQuery = o.poisonQuery
	}
	s, err := core.NewScenario(cfg)
	if err != nil {
		return err
	}
	res, err := s.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "chronosd: pool generation (%d hourly queries), attack=%v\n", len(res.PerQuery), o.attack)
	for _, q := range res.PerQuery {
		marker := ""
		if o.attack && q.Query == o.poisonQuery {
			marker = "  <- poisoning lands"
		}
		fmt.Fprintf(w, "  query %2d: %2d benign, %2d malicious (attacker %.1f%%)%s\n",
			q.Query, q.Benign, q.Malicious, 100*q.Fraction(), marker)
	}
	fmt.Fprintf(w, "pool: %d servers (%d benign, %d malicious, attacker %.1f%%)\n",
		res.PoolSize, res.PoolBenign, res.PoolMalicious, 100*res.AttackerFraction)
	fmt.Fprintf(w, "after %v sync phase:\n", o.sync)
	fmt.Fprintf(w, "  chronos clock error: %v (peak %v)\n", res.ChronosOffset, res.ChronosMaxOffset)
	fmt.Fprintf(w, "  classic-ntp clock error: %v\n", res.PlainOffset)
	fmt.Fprintf(w, "  chronos stats: %+v\n", res.ChronosStats)
	return nil
}

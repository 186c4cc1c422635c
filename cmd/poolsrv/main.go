// Command poolsrv models the server side of the pool. By default it
// traces the pool.ntp.org rotation behaviour that Chronos' pool
// generation relies on: which 4 addresses the zone serves per rotation
// window, and how many distinct servers accumulate over the 24-hour
// generation horizon.
//
// With -listen, poolsrv instead boots a farm of real UDP NTP servers on
// the given address (loopback by default) — honest members with
// randomised clock errors plus optionally malicious members applying a
// constant shift — and serves traffic until the duration elapses. Point
// chronosd -upstream at the printed endpoints.
//
// Each mode refuses the flags only the other one reads.
//
// Usage:
//
//	poolsrv [-inventory 500] [-hours 24]
//	poolsrv -listen 127.0.0.1:0 [-servers 4] [-malicious 0] [-shift 250ms] [-err 10ms] [-seed N] -duration 10s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"chronosntp/internal/dnsserver"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/simnet"
	"chronosntp/internal/wirenet/interoptest"
)

type options struct {
	seed      int64
	inventory int
	hours     int

	listen    string
	servers   int
	malicious int
	shift     time.Duration
	honestErr time.Duration
	duration  time.Duration
}

func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("poolsrv", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed for the farm's honest clock errors (-listen)")
	fs.IntVar(&o.inventory, "inventory", 500, "NTP servers behind the simulated pool")
	fs.IntVar(&o.hours, "hours", 24, "hourly queries to trace")
	fs.StringVar(&o.listen, "listen", "", "serve real NTP: listen address for a loopback farm, e.g. 127.0.0.1:0")
	fs.IntVar(&o.servers, "servers", 4, "farm size when serving (-listen)")
	fs.IntVar(&o.malicious, "malicious", 0, "how many farm members lie by -shift")
	fs.DurationVar(&o.shift, "shift", 250*time.Millisecond, "constant shift the malicious members apply")
	fs.DurationVar(&o.honestErr, "err", 10*time.Millisecond, "honest members' clock error bound (uniform ±err)")
	fs.DurationVar(&o.duration, "duration", 0, "how long to serve before exiting (0 = until interrupted)")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "poolsrv — pool rotation trace, or a real loopback NTP server farm")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Usage:")
		fmt.Fprintln(w, "  poolsrv [-inventory 500] [-hours 24]")
		fmt.Fprintln(w, "  poolsrv -listen 127.0.0.1:0 [-servers 4] [-malicious 0] [-shift 250ms] [-err 10ms] [-seed N] -duration 10s")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Flags:")
		fs.PrintDefaults()
	}
	return fs
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "poolsrv:", err)
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
	ignored, why := []string{"servers", "malicious", "shift", "err", "seed", "duration"}, "applies to the server farm; it needs -listen"
	if o.listen != "" {
		ignored, why = []string{"inventory", "hours"}, "applies to the rotation trace; it cannot be combined with -listen"
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s %s", name, why)
		}
	}
	if o.listen != "" {
		if o.servers < 1 {
			return fmt.Errorf("-servers must be at least 1, got %d", o.servers)
		}
		if o.malicious < 0 || o.malicious > o.servers {
			return fmt.Errorf("-malicious must be between 0 and -servers (%d), got %d", o.servers, o.malicious)
		}
		if o.duration < 0 {
			return fmt.Errorf("-duration must not be negative, got %v", o.duration)
		}
		return runServe(w, &o)
	}
	if o.inventory < 1 || o.inventory > maxInventory {
		return fmt.Errorf("-inventory must be between 1 and %d, got %d", maxInventory, o.inventory)
	}
	if o.hours < 1 {
		return fmt.Errorf("-hours must be at least 1, got %d", o.hours)
	}
	return runTrace(w, &o)
}

// maxInventory is how many distinct addresses runTrace's scheme
// 203.(i/250).(i%250).1 names.
const maxInventory = 256 * 250

// runServe boots a farm of real UDP servers and serves until the
// duration elapses (or an interrupt arrives).
func runServe(w io.Writer, o *options) error {
	farm, err := interoptest.StartFarm(interoptest.FarmConfig{
		Addr:      o.listen,
		Honest:    o.servers - o.malicious,
		HonestErr: o.honestErr,
		Malicious: o.malicious,
		Strategy:  ntpserver.ConstantShift(o.shift),
		Seed:      o.seed,
	})
	if err != nil {
		return err
	}
	defer farm.Close()

	honest := o.servers - o.malicious
	for i, ap := range farm.Pool {
		if i < honest {
			fmt.Fprintf(w, "serving ntp on %s (honest, offset %v)\n", ap, farm.Offsets[i])
		} else {
			fmt.Fprintf(w, "serving ntp on %s (malicious, shift %v)\n", ap, o.shift)
		}
	}

	if o.duration > 0 {
		fmt.Fprintf(w, "poolsrv: %d servers up, serving for %v\n", o.servers, o.duration)
		time.Sleep(o.duration)
	} else {
		fmt.Fprintf(w, "poolsrv: %d servers up, serving until interrupted\n", o.servers)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		signal.Stop(sig)
	}
	fmt.Fprintf(w, "served %d requests\n", farm.TotalServed())
	return nil
}

// runTrace is the original simulated rotation trace.
func runTrace(w io.Writer, o *options) error {
	n := simnet.New(simnet.Config{})
	ips := make([]simnet.IP, o.inventory)
	for i := range ips {
		ips[i] = simnet.IPv4(203, byte(i/250), byte(i%250), 1)
	}
	pool, err := dnsserver.NewPoolZone(dnsserver.PoolConfig{Name: "pool.ntp.org"}, n.Now(), ips)
	if err != nil {
		return err
	}
	seen := make(map[simnet.IP]bool)
	for h := 0; h < o.hours; h++ {
		subset := pool.Select(n.Now())
		fresh := 0
		for _, ip := range subset {
			if !seen[ip] {
				seen[ip] = true
				fresh++
			}
		}
		fmt.Fprintf(w, "hour %2d: %v (+%d new, %d total)\n", h, subset, fresh, len(seen))
		n.RunFor(time.Hour)
	}
	fmt.Fprintf(w, "accumulated %d distinct servers over %d hourly queries (ideal %d)\n",
		len(seen), o.hours, 4*o.hours)
	return nil
}

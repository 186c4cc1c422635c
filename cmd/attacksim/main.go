// Command attacksim runs the reproduction experiments and prints the
// paper-vs-measured tables. See EXPERIMENTS.md (generated) for the catalog
// of experiments E1–E11.
//
// Usage:
//
//	attacksim [-seed N] [-trials N] [-parallel N] [-experiment all|E1..E11] [-json]
//	attacksim [-seed N] [-trials N] [-parallel N] -sweep mechanism,poisonquery[,mitigation]
//	attacksim [-seed N] [-parallel N] -fleet [-clients N] [-resolvers N] [-poisoned N]
//	attacksim [-seed N] [-trials N] -experiment E10 [-shift D] [-horizon D] [-strategy S]
//	attacksim [-seed N] [-trials N] -experiment E11 [-auth M] [-quorum N]
//	attacksim -experiment E10 -checkpoint f.json   # persist completed trials as they finish
//	attacksim -experiment E10 -resume f.json       # restore them and run only the rest
//
// With -trials > 1 every scenario-backed experiment becomes a Monte-Carlo
// run: each number is reported as mean ± 95% CI across independently
// seeded replicas, fanned across -parallel workers (default GOMAXPROCS).
// The aggregates are bit-identical at any -parallel value.
//
// -sweep crosses the named axes (any comma-separated subset of
// mechanism, poisonquery, mitigation), runs one scenario per point and
// seed, and prints one aggregate row per point.
//
// -fleet runs a single population-scale simulation (internal/fleet):
// -clients behind -resolvers shared caches with -poisoned of them
// attacked, printing the per-shard and population tables. -clients and
// -resolvers also size the E9 sweep.
//
// -shift, -horizon and -strategy parameterise the E10 long-horizon shift
// study (internal/shiftsim): the target clock shift, the virtual-time
// budget per trial, and the attacker strategy (greedy, stealth,
// intermittent, honest-until-threshold, or all).
//
// -auth and -quorum parameterise the E11 authentication arms race: the
// attacker's auth-layer move (shift, mac-strip, forge-kod, cookie-replay,
// or all) and the minsources quorum size of the policy contrast (0 = 3).
//
// -checkpoint and -resume (E10 and -sweep) persist every completed trial
// to a JSONL file as it finishes and restore it on resume; because every
// trial is deterministic given its seed and a restored result lands in
// its trial's position, a resumed run's output is bit-identical to an
// uninterrupted one. -resume validates the file against the run's
// configuration fingerprint and rejects checkpoints from different runs.
//
// -json prints the experiment's typed eval.Result as JSON instead of the
// rendered table (the table is derived from the same struct).
//
// -cpuprofile and -memprofile write pprof profiles of the run (any mode).
// Each invocation carries one pprof label, for its mode or its experiment
// — mode=fleet, mode=sweep, experiment=E5, experiment=all — and the
// worker goroutines it spawns carry it too: `go tool pprof -tags` lists
// that one label. Only the garbage collector's goroutines and the
// printing of an experiment's result leave samples without it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/core"
	"chronosntp/internal/eval"
	"chronosntp/internal/fleet"
	"chronosntp/internal/runner"
	"chronosntp/internal/shiftsim"
	"chronosntp/internal/stats"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "attacksim:", err)
		os.Exit(1)
	}
}

// options collects the parsed command line.
type options struct {
	seed       int64
	experiment string
	trials     int
	parallel   int
	sweep      string
	jsonOut    bool

	fleet     bool
	clients   int
	resolvers int
	poisoned  int

	shift    time.Duration
	horizon  time.Duration
	strategy string

	auth   string
	quorum int

	checkpoint string
	resume     string

	cpuprofile string
	memprofile string
}

// modeSynopses are the command forms usage prints above the flag list.
// The flag descriptions themselves come from the flag set (PrintDefaults),
// so a newly registered flag can never be missing from -help.
var modeSynopses = []string{
	"attacksim [-seed N] [-trials N] [-parallel N] [-experiment all|E1..E11] [-json]",
	"attacksim [-seed N] [-trials N] [-parallel N] -sweep mechanism,poisonquery[,mitigation]",
	"attacksim [-seed N] [-parallel N] -fleet [-clients N] [-resolvers N] [-poisoned N]",
	"attacksim [-seed N] [-trials N] -experiment E10 [-shift D] [-horizon D] [-strategy S]",
	"attacksim [-seed N] [-trials N] -experiment E11 [-auth all|shift|mac-strip|forge-kod|cookie-replay] [-quorum N]",
	"attacksim -experiment E10|-sweep … -checkpoint f.json    (persist trials as they finish)",
	"attacksim -experiment E10|-sweep … -resume f.json        (restore them, run only the rest)",
}

// newFlagSet registers every flag and derives the usage text from the
// flag set itself.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("attacksim", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "deterministic simulation seed (first of the replica block)")
	fs.StringVar(&o.experiment, "experiment", "all", "experiment id (E1..E11) or 'all'")
	fs.IntVar(&o.trials, "trials", 1, "Monte-Carlo replicas per scenario (1 = the paper's single-seed tables)")
	fs.IntVar(&o.parallel, "parallel", 0, "worker count for the trial pool (0 = GOMAXPROCS)")
	fs.StringVar(&o.sweep, "sweep", "", "comma-separated grid dimensions to sweep: "+strings.Join(sweepAxes, ", "))
	fs.BoolVar(&o.jsonOut, "json", false, "print the typed eval.Result as JSON instead of the rendered table")
	fs.BoolVar(&o.fleet, "fleet", false, "run one population-scale fleet simulation instead of an experiment")
	fs.IntVar(&o.clients, "clients", 0, "fleet client population (0 = default 1000; also sizes E9)")
	fs.IntVar(&o.resolvers, "resolvers", 0, "fleet shared-resolver count (0 = default 10; also sizes E9)")
	fs.IntVar(&o.poisoned, "poisoned", 1, "resolvers the -fleet attacker poisons (largest fan-out first)")
	fs.DurationVar(&o.shift, "shift", 0, "E10 target clock shift (0 = default 100ms)")
	fs.DurationVar(&o.horizon, "horizon", 0, "E10 virtual-time budget per trial (0 = default 168h)")
	fs.StringVar(&o.strategy, "strategy", "all", "E10 attacker strategy: "+strings.Join(shiftsim.Names(), ", ")+", or all")
	fs.StringVar(&o.auth, "auth", "all", "E11 attacker auth-layer move: "+strings.Join(shiftsim.AuthMoves(), ", ")+", or all")
	fs.IntVar(&o.quorum, "quorum", 0, "E11 minsources quorum size for the policy contrast (0 = default 3)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "start a fresh checkpoint file; persists completed trials (E10 and -sweep)")
	fs.StringVar(&o.resume, "resume", "", "resume from an existing checkpoint file (E10 and -sweep)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an end-of-run heap profile to this file")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "attacksim — chronosntp reproduction experiments (catalog: EXPERIMENTS.md)")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Usage:")
		for _, s := range modeSynopses {
			fmt.Fprintln(w, "  "+s)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Flags:")
		fs.PrintDefaults()
	}
	return fs
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if o.trials < 1 {
		return o, fmt.Errorf("-trials must be ≥ 1, got %d", o.trials)
	}
	if err := fleetConfig(o).Validate(); err != nil {
		return o, err
	}
	// The three modes (-experiment, -sweep, -fleet) are mutually
	// exclusive, and mode-specific flags error rather than being silently
	// discarded.
	if o.fleet && set["sweep"] {
		return o, fmt.Errorf("-fleet and -sweep are mutually exclusive")
	}
	if o.fleet && set["experiment"] {
		return o, fmt.Errorf("-fleet and -experiment are mutually exclusive (E9 is the fleet sweep)")
	}
	if o.sweep != "" && set["experiment"] {
		return o, fmt.Errorf("-sweep and -experiment are mutually exclusive")
	}
	if o.fleet && o.trials > 1 {
		return o, fmt.Errorf("-fleet runs a single population simulation; use -experiment E9 -trials %d for replicas", o.trials)
	}
	if set["poisoned"] && !o.fleet {
		return o, fmt.Errorf("-poisoned only applies to -fleet (the E9 sweep varies the poisoned count itself)")
	}
	sizeable := o.fleet || (o.sweep == "" && (o.experiment == "E9" || o.experiment == "all"))
	if (set["clients"] || set["resolvers"]) && !sizeable {
		return o, fmt.Errorf("-clients/-resolvers only apply to -fleet, -experiment E9 or -experiment all")
	}
	shiftable := !o.fleet && o.sweep == "" && o.experiment == "E10"
	if (set["shift"] || set["horizon"] || set["strategy"]) && !shiftable {
		return o, fmt.Errorf("-shift/-horizon/-strategy only apply to -experiment E10 (all runs E10 at its defaults)")
	}
	if o.strategy != "all" {
		if _, err := shiftsim.ByName(o.strategy); err != nil {
			return o, err
		}
	}
	authable := !o.fleet && o.sweep == "" && o.experiment == "E11"
	if (set["auth"] || set["quorum"]) && !authable {
		return o, fmt.Errorf("-auth/-quorum only apply to -experiment E11 (all runs E11 at its defaults)")
	}
	if o.auth != "all" && shiftsim.AuthMoveDescription(o.auth) == "" {
		return o, fmt.Errorf("unknown auth move %q (valid: %s, or all)", o.auth, strings.Join(shiftsim.AuthMoves(), ", "))
	}
	// E10's target and horizon and E11's quorum are shift-engine
	// settings, which its Validate range-checks (0 means the default).
	shift := shiftsim.Config{Target: o.shift, Horizon: o.horizon, Client: chronos.Config{MinSources: o.quorum}}
	if err := shift.Validate(); err != nil {
		return o, err
	}
	if o.checkpoint != "" && o.resume != "" {
		return o, fmt.Errorf("-checkpoint and -resume are mutually exclusive (resume appends to the existing file)")
	}
	checkpointable := o.sweep != "" || (!o.fleet && o.experiment == "E10")
	if (o.checkpoint != "" || o.resume != "") && !checkpointable {
		return o, fmt.Errorf("-checkpoint/-resume currently apply to -experiment E10 and -sweep")
	}
	if o.jsonOut && (o.fleet || o.sweep != "") {
		return o, fmt.Errorf("-json applies to -experiment runs (the typed eval.Result pipeline)")
	}
	return o, nil
}

// openCheckpoint creates or resumes the run's checkpoint file, validating
// a resumed file against the configuration fingerprint.
func openCheckpoint(o options, fingerprint, description string, total int) (*runner.Checkpoint, error) {
	if o.checkpoint != "" {
		return runner.CreateCheckpoint(o.checkpoint, fingerprint, total, description)
	}
	return runner.ResumeCheckpoint(o.resume, fingerprint, total)
}

// startProfiles begins CPU profiling and arms the heap-profile write as
// requested; the returned stop must run after the measured work (and
// before process exit).
func startProfiles(o options) (stop func() error, err error) {
	var cpuFile *os.File
	if o.cpuprofile != "" {
		cpuFile, err = os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if o.memprofile != "" {
			f, err := os.Create(o.memprofile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // report live steady-state heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// labeled runs f with a pprof goroutine label so profile samples can be
// attributed to the invocation's mode or experiment (-tagfocus
// experiment=E5 etc.). Goroutines spawned inside pprof.Do inherit its
// labels, so the internal/runner workers' samples carry the label too.
func labeled(key, value string, f func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels(key, value), func(context.Context) {
		err = f()
	})
	return err
}

func run(w io.Writer, args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	stopProfiles, err := startProfiles(o)
	if err != nil {
		return err
	}
	if err := runMode(w, o); err != nil {
		stopProfiles()
		return err
	}
	return stopProfiles()
}

// runMode dispatches to the selected mode with the profiling label set.
func runMode(w io.Writer, o options) error {
	if o.fleet {
		return labeled("mode", "fleet", func() error { return runFleet(w, o) })
	}
	if o.sweep != "" {
		return labeled("mode", "sweep", func() error { return runSweep(w, o) })
	}

	runners := map[string]func() (*eval.Result, error){
		"E1": func() (*eval.Result, error) { return eval.Figure1(o.seed, o.trials, o.parallel) },
		"E2": func() (*eval.Result, error) { return eval.AttackWindow(o.seed, o.trials, o.parallel) },
		"E3": eval.MaxAddresses,
		"E4": eval.ChronosSecurity,
		"E5": func() (*eval.Result, error) { return eval.FragmentationStudy(o.seed, o.trials, o.parallel) },
		"E6": func() (*eval.Result, error) { return eval.TimeShift(o.seed, o.trials, o.parallel) },
		"E7": func() (*eval.Result, error) { return eval.Mitigations(o.seed, o.trials, o.parallel) },
		"E8": func() (*eval.Result, error) { return eval.Ablations(o.seed, o.trials, o.parallel) },
		"E9": func() (*eval.Result, error) {
			return eval.FleetStudy(o.seed, o.trials, o.parallel, o.clients, o.resolvers)
		},
		"E10": func() (*eval.Result, error) { return runE10(o) },
		"E11": func() (*eval.Result, error) {
			return eval.AuthStudy(o.seed, o.trials, o.parallel, 0, 0, o.auth, o.quorum)
		},
	}
	emit := func(res *eval.Result) error {
		if o.jsonOut {
			b, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(w, string(b))
			return nil
		}
		fmt.Fprintln(w, res.Render())
		return nil
	}
	if o.experiment == "all" {
		var results []*eval.Result
		err := labeled("experiment", "all", func() error {
			var err error
			results, err = eval.All(o.seed, o.trials, o.parallel, o.clients, o.resolvers)
			return err
		})
		if err != nil {
			return err
		}
		for _, res := range results {
			if err := emit(res); err != nil {
				return err
			}
		}
		return nil
	}
	r, ok := runners[o.experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want E1..E11 or all)", o.experiment)
	}
	var res *eval.Result
	if err := labeled("experiment", o.experiment, func() error {
		var err error
		res, err = r()
		return err
	}); err != nil {
		return err
	}
	return emit(res)
}

// runE10 runs the long-horizon shift study, with checkpoint/resume when
// requested.
func runE10(o options) (*eval.Result, error) {
	if o.checkpoint == "" && o.resume == "" {
		return eval.ShiftStudy(o.seed, o.trials, o.parallel, o.shift, o.horizon, o.strategy)
	}
	total, err := eval.ShiftStudyTasks(o.trials, o.shift, o.horizon, o.strategy)
	if err != nil {
		return nil, err
	}
	fingerprint := eval.ShiftStudyFingerprint(o.seed, o.trials, o.shift, o.horizon, o.strategy)
	ckpt, err := openCheckpoint(o, fingerprint,
		fmt.Sprintf("E10 seed=%d trials=%d strategy=%s", o.seed, o.trials, o.strategy), total)
	if err != nil {
		return nil, err
	}
	defer ckpt.Close()
	return eval.ShiftStudyCheckpointed(o.seed, o.trials, o.parallel, o.shift, o.horizon, o.strategy, ckpt)
}

// sweepAxes are the valid -sweep dimensions, sorted.
var sweepAxes = []string{"mechanism", "mitigation", "poisonquery"}

// parseSweep validates every requested dimension up front — before any
// trial runs — so a misspelled axis fails with the list of valid ones
// instead of silently sweeping nothing. It returns the set of swept axes
// and the normalized axis list (fingerprint input).
func parseSweep(dims string) (map[string]bool, string, error) {
	swept := make(map[string]bool)
	var requested []string
	for _, dim := range strings.Split(dims, ",") {
		dim = strings.TrimSpace(dim)
		if dim == "" {
			continue
		}
		if !slices.Contains(sweepAxes, dim) {
			return nil, "", fmt.Errorf("unknown sweep dimension %q (valid axes: %s)",
				dim, strings.Join(sweepAxes, ", "))
		}
		swept[dim] = true
		requested = append(requested, dim)
	}
	if len(requested) == 0 {
		return nil, "", fmt.Errorf("-sweep lists no dimensions (valid axes: %s)",
			strings.Join(sweepAxes, ", "))
	}
	return swept, strings.Join(requested, ","), nil
}

// sweepConfigs lists the scenario configs of a sweep over the swept axes
// and the label of each point. Defences are outermost, then mechanisms,
// then poison queries 1..24, then the seeds seed..seed+trials-1, so a
// point's trials are consecutive configs. An axis not swept keeps its
// base value: no defence, core.Defrag, query 12. A point's label names
// each swept axis its config reads once the defence has set its fields,
// so an unattacked point names no query and every mechanism under the
// all-vs-24h-hijack defence resolves to one label. A point whose label an
// earlier point already has is dropped: no config runs twice.
func sweepConfigs(swept map[string]bool, seed int64, trials int) ([]core.Config, []string) {
	defences := eval.Defences()
	if !swept["mitigation"] {
		defences = defences[:1]
	}
	mechanisms := []core.Mechanism{core.Defrag}
	if swept["mechanism"] {
		mechanisms = []core.Mechanism{core.NoAttack, core.Defrag, core.BGPHijack, core.BGPHijackPersistent}
	}
	queries := []int{12}
	if swept["poisonquery"] {
		queries = nil
		for q := 1; q <= chronos.DefaultPoolQueries; q++ {
			queries = append(queries, q)
		}
	}
	var cfgs []core.Config
	var points []string
	seen := make(map[string]bool)
	for _, d := range defences {
		for _, mech := range mechanisms {
			for _, q := range queries {
				cfg := core.Config{Mechanism: mech, PoisonQuery: q}
				d.Apply(&cfg)
				var label []string
				if swept["mechanism"] {
					label = append(label, "mechanism="+cfg.Mechanism.String())
				}
				if swept["poisonquery"] && cfg.Mechanism != core.NoAttack {
					label = append(label, fmt.Sprintf("poison-query=%d", cfg.PoisonQuery))
				}
				if swept["mitigation"] {
					label = append(label, "defence="+d.Name)
				}
				point := strings.Join(label, " ")
				if seen[point] {
					continue
				}
				seen[point] = true
				points = append(points, point)
				for k := 0; k < trials; k++ {
					cfg.Seed = seed + int64(k)
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs, points
}

// runSweep lists the requested sweep's configs, fans them across the
// worker pool, and prints one aggregate row per point.
func runSweep(w io.Writer, o options) error {
	swept, normalized, err := parseSweep(o.sweep)
	if err != nil {
		return err
	}
	cfgs, points := sweepConfigs(swept, o.seed, o.trials)
	var ckpt *runner.Checkpoint
	if o.checkpoint != "" || o.resume != "" {
		ckpt, err = openCheckpoint(o, sweepFingerprint(normalized, o.seed, o.trials),
			fmt.Sprintf("sweep %s seed=%d trials=%d", normalized, o.seed, o.trials), len(cfgs))
		if err != nil {
			return err
		}
		defer ckpt.Close()
	}
	results, err := runner.Map(context.Background(), len(cfgs), o.parallel, ckpt,
		func(i int) (*core.Result, error) { return core.Run(cfgs[i]) })
	if err != nil {
		return err
	}

	t := &eval.Table{
		ID:    "SWEEP",
		Title: fmt.Sprintf("grid sweep over %s — %d points × %d trials", o.sweep, len(points), o.trials),
		Columns: []string{
			"point", "trials", "attacker-fraction", "pool-benign", "pool-malicious", "planted",
		},
	}
	for i, point := range points {
		rs := results[i*o.trials : (i+1)*o.trials]
		var fraction, benign, malicious []float64
		planted := 0
		for _, r := range rs {
			fraction = append(fraction, r.AttackerFraction)
			benign = append(benign, float64(r.PoolBenign))
			malicious = append(malicious, float64(r.PoolMalicious))
			if r.PoisonPlanted {
				planted++
			}
		}
		t.AddRow(point, len(rs),
			summaryCell(fraction, eval.FormatFraction),
			summaryCell(benign, eval.FormatCount),
			summaryCell(malicious, eval.FormatCount),
			fmt.Sprintf("%d/%d", planted, len(rs)))
	}
	t.Notes = append(t.Notes,
		"± values are normal 95% CIs of the mean across the seed replicas of each grid point",
		"aggregates are bit-identical at any -parallel value (each trial's result is reduced by its position in the grid)",
	)
	fmt.Fprintln(w, t.Render())
	return nil
}

// sweepFingerprint identifies a sweep's checkpoint: its normalized axes,
// seed and trial count.
func sweepFingerprint(dims string, seed int64, trials int) string {
	return runner.Fingerprint(struct {
		Mode   string `json:"mode"`
		Dims   string `json:"dims"`
		Seed   int64  `json:"seed"`
		Trials int    `json:"trials"`
	}{"sweep", dims, seed, trials})
}

// fleetConfig is the population the -clients, -resolvers and -poisoned
// flags describe; -poisoned counts only under -fleet, since the E9 sweep
// varies it itself.
func fleetConfig(o options) fleet.Config {
	cfg := fleet.Config{Seed: o.seed, Clients: o.clients, Resolvers: o.resolvers}
	if o.fleet {
		cfg.Poisoned = o.poisoned
	}
	return cfg
}

// runFleet executes one population-scale simulation and prints the
// per-shard and population tables.
func runFleet(w io.Writer, o options) error {
	res, err := fleet.Run(context.Background(), fleetConfig(o), o.parallel)
	if err != nil {
		return err
	}
	mech := core.NoAttack // a fleet's poisoned shards run core.Defrag
	if res.Config.Poisoned > 0 {
		mech = core.Defrag
	}
	shardTable := &eval.Table{
		ID: "FLEET",
		Title: fmt.Sprintf("fleet run — %d clients (%d chronos + %d classic) behind %d resolvers, %d poisoned via %s",
			res.TotalClients, res.ChronosClients, res.ClassicClients,
			res.Config.Resolvers, res.PoisonedResolvers, mech),
		Columns: []string{
			"shard", "clients", "poisoned", "planted",
			"chronos-subverted", "chronos-shifted", "classic-subverted", "cache-hits",
		},
	}
	for _, s := range res.Shards {
		shardTable.AddRow(s.Shard, s.Clients, s.Poisoned, s.Planted,
			fmt.Sprintf("%d/%d", s.ChronosSubverted, s.Chronos),
			fmt.Sprintf("%d/%d", s.ChronosShifted, s.Chronos),
			fmt.Sprintf("%d/%d", s.ClassicSubverted, s.Classic),
			s.ResolverStats.CacheHits)
	}
	shardTable.Notes = append(shardTable.Notes,
		fmt.Sprintf("population: subverted %.3f, shifted>100ms %.3f, amplification %.1f clients per poisoned resolver",
			res.SubvertedFraction, res.ShiftedFraction, res.Amplification),
		fmt.Sprintf("mean attacker pool fraction across chronos clients: %.3f", res.MeanAttackerFraction),
		"shards are independent seeded simulations; the reduction is bit-identical at any -parallel value",
	)
	fmt.Fprintln(w, shardTable.Render())
	return nil
}

// summaryCell reduces a metric series and renders it with the shared eval
// formatter, so sweep cells match the experiment tables byte for byte.
func summaryCell(xs []float64, format func(stats.Summary) string) string {
	s, err := stats.Describe(xs)
	if err != nil {
		return "-"
	}
	return format(s)
}

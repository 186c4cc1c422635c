package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"chronosntp/internal/core"
	"chronosntp/internal/eval"
	"chronosntp/internal/fleet"
	"chronosntp/internal/runner"
	"chronosntp/internal/shiftsim"
)

func TestParseSweepRejectsUnknownAxis(t *testing.T) {
	for _, dims := range []string{"mechansim", "poisonquery,typo", "fleet"} {
		_, _, err := parseSweep(dims)
		if err == nil {
			t.Fatalf("parseSweep(%q) accepted an unknown axis", dims)
		}
		for _, axis := range []string{"mechanism", "poisonquery", "mitigation"} {
			if !strings.Contains(err.Error(), axis) {
				t.Fatalf("parseSweep(%q) error %q does not list valid axis %q", dims, err, axis)
			}
		}
	}
}

func TestParseSweepRejectsEmpty(t *testing.T) {
	for _, dims := range []string{"", " , ,"} {
		if _, _, err := parseSweep(dims); err == nil {
			t.Fatalf("parseSweep(%q) accepted an empty axis list", dims)
		}
	}
}

func TestParseSweepExpandsAxes(t *testing.T) {
	swept, normalized, err := parseSweep(" mechanism , poisonquery,mitigation")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"mechanism": true, "poisonquery": true, "mitigation": true}; !reflect.DeepEqual(swept, want) {
		t.Fatalf("swept axes = %v, want %v", swept, want)
	}
	if normalized != "mechanism,poisonquery,mitigation" {
		t.Fatalf("dims not normalized for fingerprinting: %q", normalized)
	}
}

// sweepCases lists every axis subset, plus one given in another order, at
// seed 1 and 2 trials. unattacked counts the points whose scenario is
// NoAttack; digest is the SHA-256 of the "label seed" line of every task
// in task order, computed from the task list that existing sweep
// checkpoints hold.
var sweepCases = []struct {
	dims        string
	points      int
	first, last string
	unattacked  int
	digest      string
}{
	{"mechanism", 4, "mechanism=none", "mechanism=bgp-hijack-24h", 1,
		"0b2ac8a0bc342566f69c690ce740181ed4456b312c16280f69240fed09adf83d"},
	{"poisonquery", 24, "poison-query=1", "poison-query=24", 0,
		"46b430018497f545e3de67fe2e473ccef96c468b48ca3d54f6ca790a729c0362"},
	{"mitigation", 5, "defence=none", "defence=all-vs-24h-hijack", 0,
		"72fbe11933f166cd82d5018306ba8588443ab11c8ab99cf70dcdd0ced73d2404"},
	{"mechanism,poisonquery", 73, "mechanism=none", "mechanism=bgp-hijack-24h poison-query=24", 1,
		"ceb47e4d0d9f9fd5c8a5c2ead939c55fa45929cf58a71cb15ccde56f47857b42"},
	{"mechanism,mitigation", 17, "mechanism=none defence=none", "mechanism=bgp-hijack-24h defence=all-vs-24h-hijack", 4,
		"3ab8f4dfb0aeda159bf682a00fb2c98ab073bda40b866f98e7edd12bdf420b91"},
	{"mitigation,mechanism", 17, "mechanism=none defence=none", "mechanism=bgp-hijack-24h defence=all-vs-24h-hijack", 4,
		"3ab8f4dfb0aeda159bf682a00fb2c98ab073bda40b866f98e7edd12bdf420b91"},
	{"poisonquery,mitigation", 97, "poison-query=1 defence=none", "poison-query=1 defence=all-vs-24h-hijack", 0,
		"324bf79563a26cf3f85e59f9aa0a8c60c0c71d554faf2b7e21fe9a2cabee0b61"},
	{"mechanism,poisonquery,mitigation", 293, "mechanism=none defence=none", "mechanism=bgp-hijack-24h poison-query=1 defence=all-vs-24h-hijack", 4,
		"e98fcea6b18ccecb401dfa61f7cd2530f7041418e8016a8a0651274be5c62468"},
}

const sweepSeed, sweepTrials = 1, 2

// listSweep runs sweepConfigs for dims at sweepSeed and sweepTrials.
func listSweep(t *testing.T, dims string) ([]core.Config, []string) {
	t.Helper()
	swept, _, err := parseSweep(dims)
	if err != nil {
		t.Fatal(err)
	}
	return sweepConfigs(swept, sweepSeed, sweepTrials)
}

// TestSweepConfigs pins the task order of every axis subset. A sweep
// checkpoint's fingerprint covers the axes, seed and trial count but not
// the order of the configs, so a reordered list would resume a stored
// result into the wrong task without an error. Beside the digest: the
// point and task counts, the first and last labels, and a point's trials
// being consecutive and differing only in their seeds.
func TestSweepConfigs(t *testing.T) {
	for _, tc := range sweepCases {
		t.Run(tc.dims, func(t *testing.T) {
			cfgs, points := listSweep(t, tc.dims)
			if len(points) != tc.points || len(cfgs) != tc.points*sweepTrials {
				t.Fatalf("%d points, %d tasks; want %d and %d", len(points), len(cfgs), tc.points, tc.points*sweepTrials)
			}
			if points[0] != tc.first || points[len(points)-1] != tc.last {
				t.Fatalf("points run %q … %q, want %q … %q", points[0], points[len(points)-1], tc.first, tc.last)
			}
			h := sha256.New()
			for i, cfg := range cfgs {
				point, k := points[i/sweepTrials], i%sweepTrials
				fmt.Fprintf(h, "%s %d\n", point, cfg.Seed)
				if cfg.Seed != sweepSeed+int64(k) {
					t.Fatalf("task %d (%s) has seed %d, want %d", i, point, cfg.Seed, sweepSeed+int64(k))
				}
				if withSeed(cfg, 0) != withSeed(cfgs[i-k], 0) {
					t.Fatalf("task %d (%s) differs from its point's first trial beyond the seed:\n%+v\n%+v", i, point, cfg, cfgs[i-k])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Fatalf("task order digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestSweepConfigsRunOnce checks that no config runs twice: labels and
// configs are unique, every point keeps one set of trials, and the
// all-vs-24h-hijack defence, which pins the mechanism and the poison
// query, merges every mechanism and query into one point.
func TestSweepConfigsRunOnce(t *testing.T) {
	for _, tc := range sweepCases {
		t.Run(tc.dims, func(t *testing.T) {
			cfgs, points := listSweep(t, tc.dims)
			labels := make(map[string]bool)
			merged := 0
			for _, p := range points {
				if labels[p] {
					t.Fatalf("point %q listed twice", p)
				}
				labels[p] = true
				if strings.HasSuffix(p, "defence=all-vs-24h-hijack") {
					merged++
				}
			}
			want := 0
			if strings.Contains(tc.dims, "mitigation") {
				want = 1
			}
			if merged != want {
				t.Fatalf("%d all-vs-24h-hijack points, want %d", merged, want)
			}
			seen := make(map[core.Config]bool)
			perPoint := make(map[core.Config]int)
			for i, cfg := range cfgs {
				if seen[cfg] {
					t.Fatalf("task %d (%s) repeats an earlier config %+v", i, points[i/sweepTrials], cfg)
				}
				seen[cfg] = true
				perPoint[withSeed(cfg, 0)]++
			}
			if len(perPoint) != len(points) {
				t.Fatalf("%d distinct configs across %d points", len(perPoint), len(points))
			}
			for cfg, n := range perPoint {
				if n != sweepTrials {
					t.Fatalf("config %+v has %d trials, want %d", cfg, n, sweepTrials)
				}
			}
		})
	}
}

// TestSweepConfigsNoAttackOnePoint checks that the unattacked scenario,
// which never reads its poison query, is one point per defence and that
// its label names no poison query.
func TestSweepConfigsNoAttackOnePoint(t *testing.T) {
	for _, tc := range sweepCases {
		t.Run(tc.dims, func(t *testing.T) {
			cfgs, points := listSweep(t, tc.dims)
			unattacked := 0
			for i := 0; i < len(cfgs); i += sweepTrials {
				if cfgs[i].Mechanism != core.NoAttack {
					continue
				}
				unattacked++
				if point := points[i/sweepTrials]; strings.Contains(point, "poison-query") {
					t.Fatalf("unattacked point %q names a poison query", point)
				}
			}
			if unattacked != tc.unattacked {
				t.Fatalf("%d unattacked points, want %d", unattacked, tc.unattacked)
			}
		})
	}
	_, points := listSweep(t, "mechanism,poisonquery")
	want := []string{"mechanism=none", "mechanism=defrag-injection poison-query=1", "mechanism=defrag-injection poison-query=2"}
	if !reflect.DeepEqual(points[:3], want) {
		t.Fatalf("points begin %q, want %q", points[:3], want)
	}
}

// withSeed returns cfg with its seed replaced.
func withSeed(cfg core.Config, seed int64) core.Config {
	cfg.Seed = seed
	return cfg
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(&strings.Builder{}, []string{"-trials", "0"}); err == nil {
		t.Fatal("accepted -trials 0")
	}
	// fleet.Config.Validate owns the population's ranges: these fail at
	// parse time, before any experiment or shard runs.
	for _, args := range [][]string{
		{"-fleet", "-clients", "-5"},
		{"-fleet", "-resolvers", "3", "-poisoned", "5"},
		{"-experiment", "all", "-clients", "-5"},
	} {
		if _, err := parseFlags(args); !errors.Is(err, fleet.ErrFleet) {
			t.Fatalf("%v: err = %v, want fleet's range error", args, err)
		}
	}
	if err := run(&strings.Builder{}, []string{"-fleet", "-trials", "4"}); err == nil || !strings.Contains(err.Error(), "E9") {
		t.Fatalf("-fleet -trials should point at E9: %v", err)
	}
	if err := run(&strings.Builder{}, []string{"-h"}); err != nil {
		t.Fatalf("-h should exit cleanly, got %v", err)
	}
	for _, args := range [][]string{
		{"-fleet", "-sweep", "mechanism"},
		{"-fleet", "-experiment", "E1"},
		{"-sweep", "mechanism", "-experiment", "E1"},
		{"-experiment", "E9", "-poisoned", "3"},
		{"-sweep", "mitigation", "-clients", "99999"},
		{"-experiment", "E1", "-clients", "5000"},
	} {
		if err := run(&strings.Builder{}, args); err == nil {
			t.Fatalf("conflicting flags %v were silently accepted", args)
		}
	}
	if err := run(&strings.Builder{}, []string{"-experiment", "E42"}); err == nil || !strings.Contains(err.Error(), "E1..E11") {
		t.Fatalf("unknown experiment error unhelpful: %v", err)
	}
	if err := run(&strings.Builder{}, []string{"-sweep", "nope"}); err == nil || !strings.Contains(err.Error(), "valid axes") {
		t.Fatalf("unknown sweep axis error unhelpful: %v", err)
	}
}

func TestRunFleetEndToEnd(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{"-fleet", "-clients", "60", "-resolvers", "3", "-poisoned", "1", "-seed", "5"})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== FLEET:", "amplification", "shard"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet output missing %q:\n%s", want, out)
		}
	}
}

func TestShiftFlagsOnlyApplyToE10(t *testing.T) {
	for _, args := range [][]string{
		{"-shift", "50ms"},
		{"-experiment", "E1", "-horizon", "24h"},
		{"-experiment", "E9", "-strategy", "greedy"},
		{"-fleet", "-shift", "50ms"},
		{"-sweep", "mechanism", "-horizon", "1h"},
	} {
		if err := run(&strings.Builder{}, args); err == nil || !strings.Contains(err.Error(), "E10") {
			t.Fatalf("run(%v) should reject shift flags outside E10, got %v", args, err)
		}
	}
}

func TestShiftFlagValidation(t *testing.T) {
	if err := run(&strings.Builder{}, []string{"-experiment", "E10", "-shift", "-1s"}); err == nil {
		t.Fatal("accepted negative -shift")
	}
	if err := run(&strings.Builder{}, []string{"-experiment", "E10", "-strategy", "sneaky"}); err == nil ||
		!strings.Contains(err.Error(), "greedy") {
		t.Fatalf("unknown -strategy should list the valid ones, got %v", err)
	}
}

// TestAuthFlagsOnlyApplyToE11 is the rejection matrix for the E11 flags:
// -auth and -quorum must be refused in every other mode rather than
// silently discarded.
func TestAuthFlagsOnlyApplyToE11(t *testing.T) {
	for _, args := range [][]string{
		{"-auth", "mac-strip"},
		{"-experiment", "E1", "-auth", "forge-kod"},
		{"-experiment", "E10", "-quorum", "3"},
		{"-fleet", "-auth", "shift"},
		{"-sweep", "mechanism", "-quorum", "5"},
	} {
		if err := run(&strings.Builder{}, args); err == nil || !strings.Contains(err.Error(), "E11") {
			t.Fatalf("run(%v) should reject auth flags outside E11, got %v", args, err)
		}
	}
}

func TestAuthFlagValidation(t *testing.T) {
	if err := run(&strings.Builder{}, []string{"-experiment", "E11", "-auth", "teleport"}); err == nil ||
		!strings.Contains(err.Error(), "mac-strip") {
		t.Fatalf("unknown -auth should list the valid moves, got %v", err)
	}
	if err := run(&strings.Builder{}, []string{"-experiment", "E11", "-quorum", "-1"}); err == nil {
		t.Fatal("accepted negative -quorum")
	}
	// The quorum arm samples 15 servers, so a quorum of 20 can never be
	// met; it is refused before any trial runs.
	if err := run(&strings.Builder{}, []string{"-experiment", "E11", "-quorum", "20"}); !errors.Is(err, shiftsim.ErrBadConfig) {
		t.Fatalf("-quorum 20: err = %v, want shiftsim.ErrBadConfig", err)
	}
}

// TestE11EndToEnd runs the arms-race experiment through the real CLI
// path restricted to one move, checking both policy arms reach stdout.
func TestE11EndToEnd(t *testing.T) {
	var out strings.Builder
	err := run(&out, []string{"-experiment", "E11", "-seed", "3", "-auth", "mac-strip"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E11", "mac-strip", "minsources-3", "c1c2", "sha256", "> horizon"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("E11 output missing %q:\n%s", want, out.String())
		}
	}
	// The notes legend names every registered move; only *rows* (which
	// start the line with the move) must be restricted to the selection.
	if strings.Contains(out.String(), "\nforge-kod") {
		t.Fatalf("-auth mac-strip still swept other moves:\n%s", out.String())
	}
}

// TestE10EndToEnd runs the experiment through the real CLI path with a
// short horizon and a single strategy, checking the table reaches stdout.
func TestE10EndToEnd(t *testing.T) {
	var out strings.Builder
	err := run(&out, []string{
		"-experiment", "E10", "-seed", "3",
		"-horizon", "6h", "-strategy", "greedy",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E10", "greedy", "§V caps", "89/133", "closed-form"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("E10 output missing %q:\n%s", want, out.String())
		}
	}
}

// TestUsageCoversAllFlags regenerates the help text from the flag set and
// asserts every registered flag appears in it — the E9/E10 flags can never
// again be missing from -help.
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
	for _, want := range []string{"-fleet", "-shift", "-strategy", "-checkpoint", "-resume"} {
		if !strings.Contains(help, want) {
			t.Errorf("usage text missing %s", want)
		}
	}
}

// TestCatalogFlagsRegistered checks that every -flag an eval.Catalog Run
// line names, and so every invocation EXPERIMENTS.md prints, is one
// attacksim registers.
func TestCatalogFlagsRegistered(t *testing.T) {
	var o options
	fs := newFlagSet(&o)
	flagName := regexp.MustCompile(`(?:^|[\s\[|])-([a-z][a-z0-9-]*)`)
	for _, e := range eval.Catalog() {
		for _, m := range flagName.FindAllStringSubmatch(e.Run, -1) {
			if fs.Lookup(m[1]) == nil {
				t.Errorf("%s: %q names -%s, which attacksim does not define", e.ID, e.Run, m[1])
			}
		}
	}
}

func TestJSONOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-experiment", "E3", "-json"}); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Schema  string `json:"schema"`
		Kind    string `json:"kind"`
		Meta    struct{ ID string }
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal([]byte(out.String()), &env); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if env.Schema == "" || env.Kind != "forged-capacity" {
		t.Fatalf("unexpected envelope: schema=%q kind=%q", env.Schema, env.Kind)
	}
	if err := run(&strings.Builder{}, []string{"-fleet", "-json"}); err == nil {
		t.Fatal("-fleet -json should be rejected")
	}
}

func TestCheckpointFlagValidation(t *testing.T) {
	if err := run(&strings.Builder{}, []string{"-experiment", "E1", "-checkpoint", "x.json"}); err == nil ||
		!strings.Contains(err.Error(), "E10") {
		t.Fatalf("-checkpoint outside E10/-sweep should be rejected, got %v", err)
	}
	if err := run(&strings.Builder{}, []string{"-experiment", "E10", "-checkpoint", "a", "-resume", "b"}); err == nil {
		t.Fatal("-checkpoint with -resume should be rejected")
	}
}

// e10Args is the short E10 configuration the checkpoint tests share.
func e10Args(extra ...string) []string {
	args := []string{
		"-experiment", "E10", "-seed", "3", "-trials", "2",
		"-horizon", "6h", "-strategy", "greedy",
	}
	return append(args, extra...)
}

// TestE10CheckpointResumeBitIdentical is the acceptance-criterion test:
// an E10 run checkpointed to a file, "killed" mid-run (the file truncated
// to a prefix of completed trials plus a partial trailing line, exactly
// what a mid-write kill leaves), and resumed with -resume produces output
// bit-identical to an uninterrupted run.
func TestE10CheckpointResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()

	// Reference: uninterrupted run, no checkpoint.
	var ref strings.Builder
	if err := run(&ref, e10Args()); err != nil {
		t.Fatal(err)
	}

	// Full checkpointed run — output must already match.
	full := filepath.Join(dir, "full.json")
	var chk strings.Builder
	if err := run(&chk, e10Args("-checkpoint", full)); err != nil {
		t.Fatal(err)
	}
	if chk.String() != ref.String() {
		t.Fatalf("checkpointed run differs from plain run:\n--- plain ---\n%s\n--- checkpointed ---\n%s", ref.String(), chk.String())
	}

	// Simulate the kill: keep the header and the first 5 completed-trial
	// lines, then a torn partial write with no trailing newline.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 8 {
		t.Fatalf("checkpoint has only %d lines, expected header + 16 trials", len(lines))
	}
	killed := filepath.Join(dir, "killed.json")
	torn := strings.Join(lines[:6], "") + `{"index":14,"resul`
	if err := os.WriteFile(killed, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume must complete the remaining trials and reproduce the bytes.
	var res strings.Builder
	if err := run(&res, e10Args("-resume", killed)); err != nil {
		t.Fatal(err)
	}
	if res.String() != ref.String() {
		t.Fatalf("resumed run is not bit-identical to the uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", ref.String(), res.String())
	}
}

// TestE10ResumeRejectsOtherConfig ensures a checkpoint written under one
// configuration cannot silently poison a different run.
func TestE10ResumeRejectsOtherConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if err := run(&strings.Builder{}, e10Args("-checkpoint", path)); err != nil {
		t.Fatal(err)
	}
	err := run(&strings.Builder{}, []string{
		"-experiment", "E10", "-seed", "4", "-trials", "2",
		"-horizon", "6h", "-strategy", "greedy", "-resume", path,
	})
	if err == nil || !strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("resume under a different seed should be rejected, got %v", err)
	}
}

// TestSweepCheckpointResume exercises the core.Result checkpoint path
// through the -sweep mode.
func TestSweepCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	args := func(extra ...string) []string {
		return append([]string{"-sweep", "mechanism", "-seed", "2"}, extra...)
	}
	var ref strings.Builder
	if err := run(&ref, args()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sweep.json")
	var chk strings.Builder
	if err := run(&chk, args("-checkpoint", path)); err != nil {
		t.Fatal(err)
	}
	if chk.String() != ref.String() {
		t.Fatal("checkpointed sweep differs from plain sweep")
	}
	// Drop the last completed trial and resume.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:len(lines)-2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var res strings.Builder
	if err := run(&res, args("-resume", path)); err != nil {
		t.Fatal(err)
	}
	if res.String() != ref.String() {
		t.Fatalf("resumed sweep is not bit-identical:\n--- plain ---\n%s\n--- resumed ---\n%s", ref.String(), res.String())
	}
}

// TestSweepMergedPointRunsOnce: the all-vs-24h-hijack defence pins the
// mechanism, so under -sweep mechanism,mitigation its four mechanism
// points are one config. Its row holds the two seeds once, not four
// copies of them counted as eight replicas.
func TestSweepMergedPointRunsOnce(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-sweep", "mechanism,mitigation", "-trials", "2"}); err != nil {
		t.Fatal(err)
	}
	var row []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "mechanism=bgp-hijack-24h defence=all-vs-24h-hijack ") {
			if row != nil {
				t.Fatalf("the merged point has two rows:\n%s", out.String())
			}
			row = strings.Fields(line)
		}
	}
	if row == nil {
		t.Fatalf("no row for the merged point:\n%s", out.String())
	}
	if trials, planted := row[2], row[len(row)-1]; trials != "2" || planted != "2/2" {
		t.Fatalf("merged point reads %s trials, planted %s; want 2 and 2/2:\n%s", trials, planted, out.String())
	}
}

// TestSweepResumeRefusesOlderTaskCount: a checkpoint of the same sweep
// written when a point that now merges still ran its own trials holds more
// tasks than the sweep now has: 40 against 34 where the merged
// all-vs-24h-hijack point ran its trials four times, and 192 against 146
// where the unattacked point ran once per poison query. Resume refuses it
// on the task count instead of restoring results into the wrong trials.
func TestSweepResumeRefusesOlderTaskCount(t *testing.T) {
	for _, tc := range []struct {
		dims      string
		old, want int
	}{
		{"mechanism,mitigation", 40, 34},
		{"mechanism,poisonquery", 192, 146},
	} {
		t.Run(tc.dims, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.json")
			ckpt, err := runner.CreateCheckpoint(path, sweepFingerprint(tc.dims, 1, 2), tc.old, "sweep "+tc.dims+" seed=1 trials=2")
			if err != nil {
				t.Fatal(err)
			}
			if err := ckpt.Close(); err != nil {
				t.Fatal(err)
			}
			err = run(&strings.Builder{}, []string{"-sweep", tc.dims, "-trials", "2", "-resume", path})
			if want := fmt.Sprintf("holds %d tasks, this run has %d", tc.old, tc.want); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("resuming a %d-task checkpoint: err = %v, want a task-count refusal", tc.old, err)
			}
		})
	}
}

// TestSweepNoAttackOneRow: sweeping the poison query leaves one row for
// the unattacked scenario, which never reads it, and one per query for
// each of the three attacks: 73 rows, not 96.
func TestSweepNoAttackOneRow(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-sweep", "mechanism,poisonquery"}); err != nil {
		t.Fatal(err)
	}
	rows, none := 0, 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "mechanism=") {
			rows++
		}
		if strings.HasPrefix(line, "mechanism=none ") {
			none++
		}
	}
	if rows != 73 || none != 1 {
		t.Fatalf("%d rows, %d unattacked; want 73 and 1:\n%s", rows, none, out.String())
	}
}

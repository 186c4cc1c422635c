package shiftsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// pinCase is one configuration whose full Result is pinned.
type pinCase struct {
	name string
	cfg  Config
}

// pinCases is every registered strategy × {no auth model, a forgeable
// MAC-strip model} on the paper's poisoned pool, plus chronosbench's
// honest-majority shift case (33/133, greedy) at seeds 1 and 2. The auth
// arm drops replies, so attempts arrive with fewer than m samples and
// some fall below the reply floor. In the honest-majority runs most
// samples draw honest jitter; on the poisoned pool most are the
// attacker's plan, which draws nothing.
func pinCases(t testing.TB) []pinCase {
	auths := []struct {
		name  string
		model *AuthModel
	}{
		{"noauth", nil},
		{"macstrip", &AuthModel{Frac: 0.5, Scheme: SchemeMD5, Move: MoveMACStrip}},
	}
	var out []pinCase
	for _, name := range Names() {
		strat, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range auths {
			out = append(out, pinCase{
				name: name + "/" + a.name,
				cfg: Config{
					Seed: 41, PoolSize: 133, Malicious: 89, Strategy: strat,
					Target: 300 * time.Millisecond, Horizon: 12 * time.Hour, MaxRounds: 400,
					Auth: a.model,
				},
			})
		}
	}
	for _, seed := range []int64{1, 2} {
		out = append(out, pinCase{
			name: fmt.Sprintf("honest-majority/%d", seed),
			cfg: Config{
				Seed: seed, PoolSize: 133, Malicious: 33, MaxRounds: 2000,
				Target: 24 * time.Hour, Horizon: 100 * 365 * 24 * time.Hour, RunLength: -1,
			},
		})
	}
	return out
}

// TestRunPinnedResults pins every field of Run's Result for each pin case.
// The E10/E11 goldens pin only rendered aggregates; this catches a change
// in any single counter, offset or crossing time the decision core, the
// clock or the virtual-time hop could introduce.
func TestRunPinnedResults(t *testing.T) {
	cases := pinCases(t)
	if len(cases) != len(pinnedResults) {
		t.Fatalf("%d pin cases, %d pinned results", len(cases), len(pinnedResults))
	}
	for _, tc := range cases {
		want, ok := pinnedResults[tc.name]
		if !ok {
			t.Errorf("%s: no pinned result", tc.name)
			continue
		}
		got, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gv, wv := reflect.ValueOf(*got), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); g != w {
				t.Errorf("%s: %s = %v, pinned %v", tc.name, gv.Type().Field(i).Name, g, w)
			}
		}
	}
}

// TestRunAllocsIndependentOfRounds: the round loop allocates nothing, so
// Run's allocation count is the engine's set-up alone and does not grow
// with MaxRounds.
func TestRunAllocsIndependentOfRounds(t *testing.T) {
	for _, tc := range pinCases(t) {
		allocs := func(rounds int) float64 {
			cfg := tc.cfg
			cfg.MaxRounds = rounds
			cfg.Target = 24 * time.Hour // unreachable: every run does all its rounds
			cfg.Horizon = 10 * 365 * 24 * time.Hour
			cfg.RunLength = -1
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		// The margin absorbs the odd allocation the runtime makes on its
		// own (the race detector's, say); one allocation per hundred
		// rounds still exceeds it.
		if short, long := allocs(50), allocs(5000); long-short >= 50 {
			t.Errorf("%s: %v allocs at 50 rounds, %v at 5000", tc.name, short, long)
		}
	}
}

// pinnedResults holds each pin case's Result as the sort-based decision
// core and the time.Time virtual-time hop produced it.
var pinnedResults = map[string]Result{
	"honest-majority/1":               {Rounds: 2000, Attempts: 2000, Updates: 2000, MaxOffset: 1239314, Elapsed: 130000000000000, MaxPush: 1530562},
	"honest-majority/2":               {Rounds: 2000, Attempts: 2000, Updates: 2000, MaxOffset: 1258728, Elapsed: 130000000000000, MaxPush: 1426263},
	"greedy/noauth":                   {Rounds: 400, Attempts: 520, Updates: 340, Resamples: 120, Panics: 60, PanicUpdates: 60, Captures: 256, MaxOffset: 249976124, FinalOffset: 150000000, Elapsed: 26180000000000, MaxPush: 25000000},
	"greedy/macstrip":                 {Rounds: 400, Attempts: 460, Updates: 373, Resamples: 60, Panics: 27, PanicUpdates: 27, Captures: 236, Shifted: true, TimeToShift: 1045000000000, RoundsToShift: 17, MaxOffset: 1050000000, FinalOffset: 300000000, Elapsed: 26087000000000, MaxPush: 25000000, AuthRejected: 1704},
	"honest-until-threshold/noauth":   {Rounds: 78, Attempts: 80, Updates: 77, Resamples: 2, Panics: 1, PanicUpdates: 1, Captures: 56, Shifted: true, TimeToShift: 5009000000000, RoundsToShift: 78, RoundsToRun: 78, MaxOffset: 300000000, FinalOffset: 300000000, Elapsed: 5009000000000, MaxPush: 25000000},
	"honest-until-threshold/macstrip": {Rounds: 400, Attempts: 457, Updates: 376, Resamples: 57, Panics: 24, PanicUpdates: 24, Captures: 235, Shifted: true, TimeToShift: 5605000000000, RoundsToShift: 87, MaxOffset: 1050000000, FinalOffset: 225000000, Elapsed: 26081000000000, MaxPush: 25000000, AuthRejected: 1634},
	"intermittent/noauth":             {Rounds: 400, Attempts: 425, Updates: 399, Resamples: 25, Panics: 1, PanicUpdates: 1, Captures: 235, MaxOffset: 100000000, Elapsed: 26026000000000, MaxPush: 25000000},
	"intermittent/macstrip":           {Rounds: 400, Attempts: 432, Updates: 400, Resamples: 32, Captures: 237, RoundsToRun: 186, MaxOffset: 100000000, Elapsed: 26032000000000, MaxPush: 25000000, AuthRejected: 1042},
	"stealth/noauth":                  {Rounds: 400, Attempts: 628, Updates: 376, Resamples: 228, Panics: 24, PanicUpdates: 24, Captures: 235, Shifted: true, TimeToShift: 4716000000000, RoundsToShift: 73, MaxOffset: 1939740497, FinalOffset: 1939740497, Elapsed: 26252000000000, MaxPush: 5000000},
	"stealth/macstrip":                {Rounds: 186, Attempts: 200, Updates: 186, Resamples: 14, Captures: 109, Shifted: true, TimeToShift: 3840000000000, RoundsToShift: 60, RoundsToRun: 186, MaxOffset: 930000000, FinalOffset: 930000000, Elapsed: 12040000000000, MaxPush: 5000000, AuthRejected: 479},
}

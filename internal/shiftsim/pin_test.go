package shiftsim

import (
	"reflect"
	"testing"
	"time"

	"chronosntp/internal/clock"
)

// pinCase is one configuration whose full Result is pinned.
type pinCase struct {
	name string
	cfg  Config
}

// pinCases is every registered strategy × {no drift, constant drift,
// wander} × {no auth model, a forgeable MAC-strip model} on the paper's
// poisoned pool. The drift arms take the clock's float path on every
// reading; the auth arm drops replies, so attempts arrive with fewer than
// m samples and some fall below the reply floor.
func pinCases(t testing.TB) []pinCase {
	clocks := []struct {
		name   string
		drift  float64
		wander clock.Wander
	}{
		{"still", 0, clock.Wander{}},
		{"drift", 12, clock.Wander{}},
		{"wander", 3, clock.Wander{StepPPM: 0.4, MaxPPM: 20}},
	}
	auths := []struct {
		name  string
		model *AuthModel
	}{
		{"noauth", nil},
		{"macstrip", &AuthModel{Frac: 0.5, Scheme: AuthMD5, Move: MoveMACStrip}},
	}
	var out []pinCase
	for _, name := range Names() {
		strat, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range clocks {
			for _, a := range auths {
				out = append(out, pinCase{
					name: name + "/" + c.name + "/" + a.name,
					cfg: Config{
						Seed: 41, PoolSize: 133, Malicious: 89, Strategy: strat,
						Target: 300 * time.Millisecond, Horizon: 12 * time.Hour, MaxRounds: 400,
						DriftPPM: c.drift, Wander: c.wander, Auth: a.model,
					},
				})
			}
		}
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
	"greedy/still/noauth":                    {Rounds: 400, Attempts: 520, Updates: 340, Resamples: 120, Panics: 60, PanicUpdates: 60, Captures: 256, MaxOffset: 249976124, FinalOffset: 150000000, Elapsed: 26180000000000, MaxPush: 25000000},
	"greedy/still/macstrip":                  {Rounds: 400, Attempts: 460, Updates: 373, Resamples: 60, Panics: 27, PanicUpdates: 27, Captures: 236, Shifted: true, TimeToShift: 1045000000000, RoundsToShift: 17, MaxOffset: 1050000000, FinalOffset: 300000000, Elapsed: 26087000000000, MaxPush: 25000000, AuthRejected: 1704},
	"greedy/drift/noauth":                    {Rounds: 400, Attempts: 520, Updates: 340, Resamples: 120, Panics: 60, PanicUpdates: 60, Captures: 256, MaxOffset: 257788124, FinalOffset: 155460000, Elapsed: 26180000000000, MaxPush: 25000000},
	"greedy/drift/macstrip":                  {Rounds: 400, Attempts: 460, Updates: 373, Resamples: 60, Panics: 27, PanicUpdates: 27, Captures: 236, Shifted: true, TimeToShift: 1045000000000, RoundsToShift: 17, MaxOffset: 1082772000, FinalOffset: 310140000, Elapsed: 26087000000000, MaxPush: 25000000, AuthRejected: 1704},
	"greedy/wander/noauth":                   {Rounds: 87, Attempts: 103, Updates: 79, Resamples: 16, Panics: 8, PanicUpdates: 8, Captures: 57, Shifted: true, TimeToShift: 5615000000000, RoundsToShift: 87, RoundsToRun: 87, MaxOffset: 303621417, FinalOffset: 303621417, Elapsed: 5615000000000, MaxPush: 25000000},
	"greedy/wander/macstrip":                 {Rounds: 326, Attempts: 368, Updates: 309, Resamples: 42, Panics: 17, PanicUpdates: 17, Captures: 200, Shifted: true, TimeToShift: 716000000000, RoundsToShift: 12, RoundsToRun: 326, MaxOffset: 2010582259, FinalOffset: 2010582259, Elapsed: 21185000000000, MaxPush: 25000000, AuthRejected: 1295},
	"honest-until-threshold/still/noauth":    {Rounds: 78, Attempts: 80, Updates: 77, Resamples: 2, Panics: 1, PanicUpdates: 1, Captures: 56, Shifted: true, TimeToShift: 5009000000000, RoundsToShift: 78, RoundsToRun: 78, MaxOffset: 300000000, FinalOffset: 300000000, Elapsed: 5009000000000, MaxPush: 25000000},
	"honest-until-threshold/still/macstrip":  {Rounds: 400, Attempts: 457, Updates: 376, Resamples: 57, Panics: 24, PanicUpdates: 24, Captures: 235, Shifted: true, TimeToShift: 5605000000000, RoundsToShift: 87, MaxOffset: 1050000000, FinalOffset: 225000000, Elapsed: 26081000000000, MaxPush: 25000000, AuthRejected: 1634},
	"honest-until-threshold/drift/noauth":    {Rounds: 78, Attempts: 80, Updates: 77, Resamples: 2, Panics: 1, PanicUpdates: 1, Captures: 56, Shifted: true, TimeToShift: 5009000000000, RoundsToShift: 78, RoundsToRun: 78, MaxOffset: 309372000, FinalOffset: 309372000, Elapsed: 5009000000000, MaxPush: 25000000},
	"honest-until-threshold/drift/macstrip":  {Rounds: 400, Attempts: 457, Updates: 376, Resamples: 57, Panics: 24, PanicUpdates: 24, Captures: 235, Shifted: true, TimeToShift: 5605000000000, RoundsToShift: 87, MaxOffset: 1082772000, FinalOffset: 232800000, Elapsed: 26081000000000, MaxPush: 25000000, AuthRejected: 1634},
	"honest-until-threshold/wander/noauth":   {Rounds: 400, Attempts: 502, Updates: 349, Resamples: 102, Panics: 51, PanicUpdates: 51, Captures: 260, MaxOffset: 199891446, FinalOffset: 74237070, Elapsed: 26153000000000, MaxPush: 25000000},
	"honest-until-threshold/wander/macstrip": {Rounds: 400, Attempts: 439, Updates: 384, Resamples: 39, Panics: 16, PanicUpdates: 16, Captures: 248, Shifted: true, TimeToShift: 4686000000000, RoundsToShift: 73, MaxOffset: 1575189519, FinalOffset: 173752361, Elapsed: 26055000000000, MaxPush: 25000000, AuthRejected: 1435},
	"intermittent/still/noauth":              {Rounds: 400, Attempts: 425, Updates: 399, Resamples: 25, Panics: 1, PanicUpdates: 1, Captures: 235, MaxOffset: 100000000, Elapsed: 26026000000000, MaxPush: 25000000},
	"intermittent/still/macstrip":            {Rounds: 400, Attempts: 432, Updates: 400, Resamples: 32, Captures: 237, RoundsToRun: 186, MaxOffset: 100000000, Elapsed: 26032000000000, MaxPush: 25000000, AuthRejected: 1042},
	"intermittent/drift/noauth":              {Rounds: 400, Attempts: 428, Updates: 399, Resamples: 28, Panics: 1, PanicUpdates: 1, Captures: 251, MaxOffset: 103144000, FinalOffset: 780000, Elapsed: 26029000000000, MaxPush: 25000000},
	"intermittent/drift/macstrip":            {Rounds: 400, Attempts: 432, Updates: 400, Resamples: 32, Captures: 237, RoundsToRun: 186, MaxOffset: 103156000, FinalOffset: 780000, Elapsed: 26032000000000, MaxPush: 25000000, AuthRejected: 1042},
	"intermittent/wander/noauth":             {Rounds: 400, Attempts: 416, Updates: 397, Resamples: 16, Panics: 3, PanicUpdates: 3, Captures: 272, RoundsToRun: 31, MaxOffset: 101110018, FinalOffset: 1442, Elapsed: 26019000000000, MaxPush: 25000000},
	"intermittent/wander/macstrip":           {Rounds: 400, Attempts: 421, Updates: 400, Resamples: 21, Captures: 244, MaxOffset: 100627055, FinalOffset: -214632, Elapsed: 26021000000000, MaxPush: 25000000, AuthRejected: 970},
	"stealth/still/noauth":                   {Rounds: 400, Attempts: 628, Updates: 376, Resamples: 228, Panics: 24, PanicUpdates: 24, Captures: 235, Shifted: true, TimeToShift: 4716000000000, RoundsToShift: 73, MaxOffset: 1939740497, FinalOffset: 1939740497, Elapsed: 26252000000000, MaxPush: 5000000},
	"stealth/still/macstrip":                 {Rounds: 186, Attempts: 200, Updates: 186, Resamples: 14, Captures: 109, Shifted: true, TimeToShift: 3840000000000, RoundsToShift: 60, RoundsToRun: 186, MaxOffset: 930000000, FinalOffset: 930000000, Elapsed: 12040000000000, MaxPush: 5000000, AuthRejected: 479},
	"stealth/drift/noauth":                   {Rounds: 400, Attempts: 634, Updates: 376, Resamples: 234, Panics: 24, PanicUpdates: 24, Captures: 234, Shifted: true, TimeToShift: 3538000000000, RoundsToShift: 55, MaxOffset: 2298810529, FinalOffset: 2299578529, Elapsed: 26258000000000, MaxPush: 5000000},
	"stealth/drift/macstrip":                 {Rounds: 186, Attempts: 200, Updates: 186, Resamples: 14, Captures: 109, Shifted: true, TimeToShift: 3385000000000, RoundsToShift: 53, RoundsToRun: 186, MaxOffset: 1074480000, FinalOffset: 1074480000, Elapsed: 12040000000000, MaxPush: 5000000, AuthRejected: 479},
	"stealth/wander/noauth":                  {Rounds: 400, Attempts: 589, Updates: 382, Resamples: 189, Panics: 18, PanicUpdates: 18, Captures: 256, Shifted: true, TimeToShift: 4967000000000, RoundsToShift: 77, MaxOffset: 1941493931, FinalOffset: 1941489234, Elapsed: 26207000000000, MaxPush: 5000000},
	"stealth/wander/macstrip":                {Rounds: 400, Attempts: 421, Updates: 400, Resamples: 21, Captures: 244, Shifted: true, TimeToShift: 3841000000000, RoundsToShift: 60, MaxOffset: 1967935930, FinalOffset: 1967724600, Elapsed: 26021000000000, MaxPush: 5000000, AuthRejected: 970},
}

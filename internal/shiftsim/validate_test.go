package shiftsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"chronosntp/internal/chronos"
)

// TestRunRejectsBadPool: every out-of-range config fails Validate and Run
// with the package's error instead of panicking, hanging or running a
// different simulation, and the edges next to them still run. Each bad
// case records what it did before Validate existed.
func TestRunRejectsBadPool(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want error // nil: the config runs
	}{
		{"malicious-over-pool", Config{PoolSize: 10, Malicious: 11}, ErrBadPool},
		{"negative-pool", Config{PoolSize: -1}, ErrBadPool},
		{"negative-malicious", Config{PoolSize: 10, Malicious: -1}, ErrBadPool},
		// Panicked: "slice bounds out of range [:-3]".
		{"negative-sample", Config{Client: chronos.Config{SampleSize: -3}}, ErrBadConfig},
		{"negative-query-timeout", Config{Client: chronos.Config{QueryTimeout: -time.Second}}, ErrBadConfig},
		// Ran 0 rounds without an error.
		{"negative-horizon", Config{Horizon: -time.Hour}, ErrBadConfig},
		// Reported Shifted at once.
		{"negative-target", Config{Target: -time.Millisecond}, ErrBadConfig},
		// Ran with no round cap.
		{"negative-max-rounds", Config{MaxRounds: -5}, ErrBadConfig},
		// Shrank to 133.
		{"sample-over-pool", Config{Client: chronos.Config{SampleSize: 200}}, ErrBadConfig},
		// Fell through to panic mode in every round.
		{"quorum-over-pool", Config{Horizon: time.Hour, Client: chronos.Config{MinSources: 500}}, ErrBadConfig},
		{"quorum-over-sample", Config{Client: chronos.Config{MinSources: 16}}, ErrBadConfig},
		// Ran C1/C2 under a label naming the quorum.
		{"negative-quorum", Config{Client: chronos.Config{MinSources: -1}}, ErrBadConfig},
		{"auth-frac-nan", Config{Auth: &AuthModel{Frac: math.NaN()}}, ErrBadAuth},

		{"defaults", Config{}, nil},
		{"sample-is-pool", Config{Client: chronos.Config{SampleSize: 133}}, nil},
		{"quorum-is-sample", Config{Client: chronos.Config{MinSources: 15}}, nil},
		{"small-pool-default-sample", Config{PoolSize: 9, Malicious: 3}, nil},
		{"run-length-disabled", Config{RunLength: -1}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.MaxRounds == 0 {
				cfg.MaxRounds = 20
			}
			if err := cfg.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
			if _, err := Run(cfg); !errors.Is(err, tc.want) {
				t.Fatalf("Run: err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestSmallPoolKeepsExplicitRule: a pool below the default m shrinks the
// defaulted sample only; a sample size the caller set stays. The trim
// follows whichever m the rule gets.
func TestSmallPoolKeepsExplicitRule(t *testing.T) {
	for _, tc := range []struct{ set, m, need int }{{0, 9, 6}, {5, 5, 4}} {
		got := Config{PoolSize: 9, Client: chronos.Config{SampleSize: tc.set}}.withDefaults().Client
		if need := chronos.NewRule(got).CaptureNeed(); got.SampleSize != tc.m || need != tc.need {
			t.Errorf("sample size %d set: m, m − d = %d, %d; want %d, %d", tc.set, got.SampleSize, need, tc.m, tc.need)
		}
	}
}

// fuzzConfig is FuzzConfig's input: fixed-size integers, read little
// endian from the fuzz bytes (zero-padded), that config maps onto a
// Config with every field free to leave its range.
type fuzzConfig struct {
	Seed                         int64
	Pool, Malicious              int16 // PoolSize and Malicious modulo 400
	Sample, MinSources           int16
	TimeoutMs                    int16 // Client.QueryTimeout in ms
	Target, Horizon              int64 // in ns; Horizon modulo 6 h
	MaxRounds, RunLength         int16 // MaxRounds modulo 301; 0 becomes 300
	Strategy, Auth, Scheme, Move uint8
	AuthFrac                     int8 // in tenths
}

// config is the Config f stands for. The round cap keeps every run at
// 300 rounds or fewer.
func (f fuzzConfig) config() Config {
	c := Config{
		Seed:      f.Seed,
		PoolSize:  int(f.Pool) % 400,
		Malicious: int(f.Malicious) % 400,
		Client: chronos.Config{
			SampleSize: int(f.Sample), MinSources: int(f.MinSources),
			QueryTimeout: time.Duration(f.TimeoutMs) * time.Millisecond,
		},
		Target:    time.Duration(f.Target),
		Horizon:   time.Duration(f.Horizon) % (6*time.Hour + 1),
		MaxRounds: int(f.MaxRounds) % 301,
		RunLength: int(f.RunLength),
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 300
	}
	names := Names()
	if k := int(f.Strategy) % (len(names) + 1); k > 0 {
		c.Strategy, _ = ByName(names[k-1]) // a registered name always resolves
	}
	if f.Auth%2 == 1 {
		schemes := append(AuthSchemes(), "", "bogus")
		moves := append(AuthMoves(), "", "bogus")
		c.Auth = &AuthModel{
			Frac:   float64(f.AuthFrac) / 10,
			Scheme: schemes[int(f.Scheme)%len(schemes)],
			Move:   moves[int(f.Move)%len(moves)],
		}
	}
	return c
}

func (f fuzzConfig) bytes() []byte {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, f); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzConfig: Run either rejects a config with an error wrapping
// ErrBadPool, ErrBadConfig or ErrBadAuth, or returns the same Result on
// two runs. It must never panic or hang; a run pair that takes longer
// than a minute fails. The seeds are TestRunRejectsBadPool's cases.
func FuzzConfig(f *testing.F) {
	for _, fc := range []fuzzConfig{
		{},
		{Sample: -3},
		{TimeoutMs: -1000, Horizon: int64(time.Hour)},
		{Horizon: -int64(time.Hour)},
		{Target: -int64(time.Millisecond)},
		{MaxRounds: -5},
		{Pool: 133, Malicious: 89, Sample: 200},
		{Pool: 133, Malicious: 89, MinSources: 500, Horizon: int64(time.Hour)},
		{MinSources: -1},
		{MinSources: 16},
		{RunLength: -1},
		{Pool: 10, Malicious: 11},
		{Pool: 9, Malicious: 9, Horizon: int64(time.Hour)},
		{Seed: 1, Pool: 133, Malicious: 33, MaxRounds: 300},
		{Seed: 41, Pool: 133, Malicious: 89, Strategy: 1, Auth: 1, AuthFrac: 5, Move: 1},
	} {
		f.Add(fc.bytes())
	}
	size := binary.Size(fuzzConfig{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fc fuzzConfig
		buf := make([]byte, size)
		copy(buf, data)
		if err := binary.Read(bytes.NewReader(buf), binary.LittleEndian, &fc); err != nil {
			t.Fatal(err)
		}
		cfg := fc.config()
		type outcome struct {
			a, b  *Result
			err   error
			panic any
		}
		// The runs get their own goroutine so that a hang fails the
		// input; a panic there is handed back rather than killing the
		// fuzzing process.
		done := make(chan outcome, 1)
		go func() {
			var o outcome
			defer func() {
				o.panic = recover()
				done <- o
			}()
			if o.a, o.err = Run(cfg); o.err == nil {
				o.b, o.err = Run(cfg)
			}
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%+v: Run did not return within a minute", cfg)
		}
		switch {
		case o.panic != nil:
			t.Fatalf("%+v: Run panicked: %v", cfg, o.panic)
		case o.err == nil:
			if *o.a != *o.b {
				t.Fatalf("%+v: two runs differ:\n%+v\n%+v", cfg, *o.a, *o.b)
			}
		case !errors.Is(o.err, ErrBadPool) && !errors.Is(o.err, ErrBadConfig) && !errors.Is(o.err, ErrBadAuth):
			t.Fatalf("%+v: unexpected error %v", cfg, o.err)
		}
	})
}

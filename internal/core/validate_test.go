package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"chronosntp/internal/chronos"
)

// TestNewScenarioRejectsBadConfig: every out-of-range config fails
// Validate and NewScenario with ErrScenario instead of panicking, hanging
// or running a different scenario, and the edges next to them still
// build. Each bad case records what it did before Validate existed.
func TestNewScenarioRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		bad  bool
	}{
		// Panicked in ntpserver.Farm: "makeslice: cap out of range".
		{"negative-malicious", Config{MaliciousServers: -5}, true},
		// Validate passed it; NewScenario then refused it.
		{"unknown-mechanism", Config{Mechanism: BGPHijackPersistent + 1}, true},
		// Ran without an error.
		{"poison-query-past-generation", Config{Mechanism: Defrag, PoisonQuery: 30}, true},
		{"negative-poison-query", Config{Mechanism: Defrag, PoisonQuery: -1}, true},
		{"negative-sync-duration", Config{SyncDuration: -time.Hour}, true},
		// Ran with forged TTLs of 2^32−1 s and of 0 s.
		{"negative-forged-ttl", Config{Mechanism: Defrag, ForgedTTL: -time.Second}, true},
		{"forged-ttl-over-field", Config{Mechanism: Defrag, ForgedTTL: (math.MaxUint32 + 1) * time.Second}, true},
		// Still running after 20 s: the sync loop's elapsed time, or a
		// poll one chronos.SyncInterval out, passes the largest Duration.
		{"sync-span-overflows", Config{SyncDuration: math.MaxInt64 - time.Hour}, true},
		// The sync phase fits, but its last step does not.
		{"sync-step-overflows", Config{SyncDuration: math.MaxInt64 - 24*time.Hour - 3*time.Minute}, true},
		{"span-one-past-limit", Config{SyncDuration: math.MaxInt64 - 24*time.Hour - 3*time.Minute - chronos.SyncInterval + 1}, true},

		{"defaults", Config{}, false},
		{"poison-query-first", Config{Mechanism: Defrag, PoisonQuery: 1}, false},
		{"poison-query-last", Config{Mechanism: BGPHijack, PoisonQuery: 24}, false},
		{"honest-ignores-poison-query", Config{PoisonQuery: 30}, false},
		{"consensus", Config{Mechanism: Defrag, Consensus: true}, false},
		{"forged-ttl-field-max", Config{Mechanism: Defrag, ForgedTTL: math.MaxUint32 * time.Second}, false},
		{"paper-caps", Config{ResolverCaps: true, ClientCaps: true}, false},
		// At the limit: 24 h of generation, three minutes around it and
		// the sync phase to the end of its last step make exactly the
		// largest Duration.
		{"span-at-limit", Config{SyncDuration: math.MaxInt64 - 24*time.Hour - 3*time.Minute - chronos.SyncInterval}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.bad != (err != nil) || err != nil && !errors.Is(err, ErrScenario) {
				t.Fatalf("Validate() = %v, want an ErrScenario error: %v", err, tc.bad)
			}
			_, err = NewScenario(tc.cfg)
			if tc.bad != (err != nil) || err != nil && !errors.Is(err, ErrScenario) {
				t.Fatalf("NewScenario: err = %v, want an ErrScenario error: %v", err, tc.bad)
			}
		})
	}
}

// fuzzConfig is FuzzConfig's input: fixed-size integers, read little
// endian from the fuzz bytes (zero-padded), that config maps onto a
// Config with every field free to leave its range.
type fuzzConfig struct {
	Seed                     int64
	Malicious                int16 // modulo 200
	Mechanism                uint8 // modulo 6: the default, the four mechanisms, an unknown one
	PoisonQuery              int8
	ForgedTTL                int64 // in ns
	SyncMin                  int16 // SyncDuration in minutes, modulo 121
	ResolverCaps, ClientCaps bool
	Consensus                bool
	PlainNTP                 bool
}

// config is the Config f stands for. The sync phase lasts at most two
// hours in steps of chronos.SyncInterval, after the 24 queries of pool
// generation, so a run that passes Validate returns within seconds.
func (f fuzzConfig) config() Config {
	return Config{
		Seed:             f.Seed,
		MaliciousServers: int(f.Malicious) % 200,
		Mechanism:        Mechanism(f.Mechanism % 6),
		PoisonQuery:      int(f.PoisonQuery),
		ForgedTTL:        time.Duration(f.ForgedTTL),
		SyncDuration:     time.Duration(f.SyncMin%121) * time.Minute,
		ResolverCaps:     f.ResolverCaps,
		ClientCaps:       f.ClientCaps,
		Consensus:        f.Consensus,
		RunPlainNTP:      f.PlainNTP,
	}
}

func (f fuzzConfig) bytes() []byte {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, f); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzConfig: NewScenario refuses a config exactly when Validate does,
// with an error wrapping ErrScenario. A config it accepts runs to
// completion if it is a seed or a cheap one (at most a quarter hour of
// sync), with any error the run returns wrapping
// ErrScenario too; such a run must never panic or hang, and one that
// takes longer than a minute fails. The other accepted configs stop once
// built, which keeps a 10 s smoke run at thousands of inputs; running
// every input whole reached a few dozen. The seeds are
// TestNewScenarioRejectsBadConfig's cases, each §V defence alone, and a
// few valid attacked runs.
func FuzzConfig(f *testing.F) {
	seeds := make(map[string]bool)
	for _, fc := range []fuzzConfig{
		{},
		{Malicious: -5},
		{Mechanism: uint8(Defrag), PoisonQuery: 30},
		{Mechanism: uint8(Defrag), PoisonQuery: -1},
		{ResolverCaps: true},
		{SyncMin: -60},
		{ClientCaps: true},
		{Consensus: true},
		{Mechanism: uint8(Defrag), ForgedTTL: -int64(time.Second)},
		{Mechanism: uint8(Defrag), ForgedTTL: (math.MaxUint32 + 1) * int64(time.Second)},
		{Seed: 5, Mechanism: uint8(Defrag), PoisonQuery: 3, Consensus: true},
		{Seed: 6, Mechanism: uint8(Defrag), PoisonQuery: 12, ResolverCaps: true, ClientCaps: true},
		{Mechanism: 5},
		{Mechanism: uint8(BGPHijack), PoisonQuery: 24, SyncMin: 120},
		{Seed: 3, Mechanism: uint8(Defrag), PoisonQuery: 2, SyncMin: 20, PlainNTP: true},
		{Seed: 4, Mechanism: uint8(BGPHijackPersistent), PoisonQuery: 1, Consensus: true, ResolverCaps: true, ClientCaps: true},
	} {
		b := fc.bytes()
		seeds[string(b)] = true
		f.Add(b)
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
		verr := cfg.Validate()
		s, err := NewScenario(cfg)
		switch {
		case (verr == nil) != (err == nil):
			t.Fatalf("%+v: Validate() = %v but NewScenario: %v", cfg, verr, err)
		case err != nil && !errors.Is(err, ErrScenario) || verr != nil && !errors.Is(verr, ErrScenario):
			t.Fatalf("%+v: Validate() = %v, NewScenario: %v; want ErrScenario errors", cfg, verr, err)
		case err != nil:
			return
		case !seeds[string(data)] && cfg.SyncDuration > 15*time.Minute:
			return
		}
		type outcome struct {
			err   error
			panic any
		}
		// The run gets its own goroutine so that a hang fails the input;
		// a panic there is handed back rather than killing the fuzzing
		// process.
		done := make(chan outcome, 1)
		go func() {
			var o outcome
			defer func() {
				o.panic = recover()
				done <- o
			}()
			_, o.err = s.Run()
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%+v: the scenario did not return within a minute", cfg)
		}
		switch {
		case o.panic != nil:
			t.Fatalf("%+v: panicked: %v", cfg, o.panic)
		case o.err != nil && !errors.Is(o.err, ErrScenario):
			t.Fatalf("%+v: unexpected error %v", cfg, o.err)
		}
	})
}

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/dnsresolver"
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
		// Ran without an error.
		{"poison-query-past-generation", Config{Mechanism: Defrag, PoisonQuery: 30}, true},
		{"negative-poison-query", Config{Mechanism: Defrag, PoisonQuery: -1}, true},
		{"negative-consensus", Config{Consensus: -2}, true},
		{"negative-sync-duration", Config{SyncDuration: -time.Hour}, true},
		// Failed with "simnet: host already exists: 10.0.0.53".
		{"consensus-over-addresses", Config{Consensus: 300}, true},
		// Ran with a resolver at 10.0.0.0: the address byte wrapped.
		{"consensus-wraps", Config{Consensus: 204}, true},
		// Ran with forged TTLs of 2^32−1 s and of 0 s.
		{"negative-forged-ttl", Config{Mechanism: Defrag, ForgedTTL: -time.Second}, true},
		{"forged-ttl-over-field", Config{Mechanism: Defrag, ForgedTTL: (math.MaxUint32 + 1) * time.Second}, true},
		// Ran as the unmitigated scenario: the §V checks test caps > 0.
		{"negative-resolver-answer-cap", Config{ResolverPolicy: dnsresolver.AcceptancePolicy{MaxAnswerRecords: -4}}, true},
		{"negative-resolver-ttl-cap", Config{ResolverPolicy: dnsresolver.AcceptancePolicy{MaxTTL: -time.Second}}, true},
		{"negative-client-addr-cap", Config{ClientPolicy: chronos.PoolPolicy{MaxAddrsPerResponse: -4}}, true},
		{"negative-client-ttl-cap", Config{ClientPolicy: chronos.PoolPolicy{MaxTTL: -time.Second}}, true},
		// Ran with an empty pool: the resolver's cap wrapped to 0 s and
		// refused every record.
		{"resolver-ttl-cap-over-field", Config{ResolverPolicy: dnsresolver.AcceptancePolicy{MaxTTL: (math.MaxUint32 + 1) * time.Second}}, true},
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
		{"consensus-every-address", Config{Consensus: 203}, false},
		{"forged-ttl-field-max", Config{Mechanism: Defrag, ForgedTTL: math.MaxUint32 * time.Second}, false},
		{"paper-caps", Config{ResolverPolicy: dnsresolver.AcceptancePolicy{MaxAnswerRecords: 4, MaxTTL: 24 * time.Hour}, ClientPolicy: chronos.PoolPolicy{MaxAddrsPerResponse: 4, MaxTTL: 24 * time.Hour}}, false},
		{"resolver-ttl-cap-field-max", Config{ResolverPolicy: dnsresolver.AcceptancePolicy{MaxTTL: math.MaxUint32 * time.Second}}, false},
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
	Seed                      int64
	Malicious                 int16 // modulo 200
	Mechanism                 uint8 // modulo 6: the default, the four mechanisms, an unknown one
	PoisonQuery               int8
	ForgedTTL                 int64 // in ns
	SyncMin                   int16 // SyncDuration in minutes, modulo 121
	Consensus                 int16 // modulo 300
	ResolverAnswers, Addrs    int8  // the resolver's and client's per-response caps
	ResolverTTLMin, ClientTTL int16 // the policies' TTL caps, in minutes
	PlainNTP                  bool
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
		Consensus:        int(f.Consensus) % 300,
		ResolverPolicy: dnsresolver.AcceptancePolicy{
			MaxAnswerRecords: int(f.ResolverAnswers),
			MaxTTL:           time.Duration(f.ResolverTTLMin) * time.Minute,
		},
		ClientPolicy: chronos.PoolPolicy{
			MaxAddrsPerResponse: int(f.Addrs),
			MaxTTL:              time.Duration(f.ClientTTL) * time.Minute,
		},
		RunPlainNTP: f.PlainNTP,
	}
}

func (f fuzzConfig) bytes() []byte {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, f); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzConfig: NewScenario either rejects a config with an error wrapping
// ErrScenario, or the scenario runs to completion, with any error it
// returns wrapping ErrScenario too. It must never panic or hang; a run
// that takes longer than a minute fails. The seeds are
// TestNewScenarioRejectsBadConfig's cases and a few valid attacked runs.
func FuzzConfig(f *testing.F) {
	for _, fc := range []fuzzConfig{
		{},
		{Malicious: -5},
		{Mechanism: uint8(Defrag), PoisonQuery: 30},
		{Mechanism: uint8(Defrag), PoisonQuery: -1},
		{Consensus: -2},
		{SyncMin: -60},
		{Consensus: 299},
		{Consensus: 204},
		{Mechanism: uint8(Defrag), ForgedTTL: -int64(time.Second)},
		{Mechanism: uint8(Defrag), ForgedTTL: (math.MaxUint32 + 1) * int64(time.Second)},
		{ResolverAnswers: -4},
		{ClientTTL: -1},
		{Mechanism: 5},
		{Mechanism: uint8(BGPHijack), PoisonQuery: 24, SyncMin: 120},
		{Seed: 3, Mechanism: uint8(Defrag), PoisonQuery: 2, SyncMin: 20, PlainNTP: true},
		{Seed: 4, Mechanism: uint8(BGPHijackPersistent), PoisonQuery: 1, Consensus: 3, ResolverAnswers: 4, Addrs: 4, ClientTTL: 60},
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
			var s *Scenario
			if s, o.err = NewScenario(cfg); o.err == nil {
				_, o.err = s.Run()
			}
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

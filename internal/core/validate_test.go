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
		{"negative-benign", Config{BenignServers: -5}, true},
		{"negative-malicious", Config{MaliciousServers: -5}, true},
		// Never returned: Run's sync loop stepped backwards.
		{"negative-sync-interval", Config{SyncDuration: time.Hour, SyncInterval: -time.Second}, true},
		// Ran without an error.
		{"poison-query-past-generation", Config{Mechanism: Defrag, PoisonQuery: 30}, true},
		{"negative-poison-query", Config{Mechanism: Defrag, PoisonQuery: -1}, true},
		{"negative-consensus", Config{Consensus: -2}, true},
		{"negative-sync-duration", Config{SyncDuration: -time.Hour}, true},
		// Failed with "simnet: host already exists: 10.0.0.53".
		{"consensus-over-addresses", Config{Consensus: 300}, true},
		// Ran with a resolver at 10.0.0.0: the address byte wrapped.
		{"consensus-wraps", Config{Consensus: 204}, true},
		// Run failed: "pool generation did not complete".
		{"negative-pool-queries", Config{PoolQueries: -1}, true},
		{"negative-pool-query-interval", Config{PoolQueryInterval: -time.Hour}, true},
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
		// poll one SyncInterval out, passes the largest Duration.
		{"sync-span-overflows", Config{SyncDuration: math.MaxInt64 - time.Hour}, true},
		{"sync-step-overflows", Config{SyncDuration: time.Hour, SyncInterval: math.MaxInt64 - time.Minute}, true},
		{"span-one-past-limit", Config{SyncInterval: math.MaxInt64 / 4, SyncDuration: math.MaxInt64 - 24*time.Hour - 3*time.Minute - math.MaxInt64/4 + 1}, true},
		// Run failed: "pool generation did not complete".
		{"generation-overflows", Config{PoolQueryInterval: math.MaxInt64/24 + 1}, true},
		// Four queries 2^62+1 ns apart wrap to a 4 ns span.
		{"generation-wraps-positive", Config{PoolQueries: 4, PoolQueryInterval: 1<<62 + 1}, true},

		{"defaults", Config{}, false},
		{"poison-query-first", Config{Mechanism: Defrag, PoisonQuery: 1}, false},
		{"poison-query-last", Config{Mechanism: BGPHijack, PoisonQuery: 24}, false},
		{"short-generation", Config{Mechanism: Defrag, PoolQueries: 3, PoisonQuery: 3}, false},
		{"honest-ignores-poison-query", Config{PoisonQuery: 30}, false},
		{"consensus-every-address", Config{Consensus: 203}, false},
		{"forged-ttl-field-max", Config{Mechanism: Defrag, ForgedTTL: math.MaxUint32 * time.Second}, false},
		{"paper-caps", Config{ResolverPolicy: dnsresolver.AcceptancePolicy{MaxAnswerRecords: 4, MaxTTL: 24 * time.Hour}, ClientPolicy: chronos.PoolPolicy{MaxAddrsPerResponse: 4, MaxTTL: 24 * time.Hour}}, false},
		{"resolver-ttl-cap-field-max", Config{ResolverPolicy: dnsresolver.AcceptancePolicy{MaxTTL: math.MaxUint32 * time.Second}}, false},
		// At the limit: 24 h of generation, three minutes around it and
		// the sync phase to the end of its last step make exactly the
		// largest Duration.
		{"span-at-limit", Config{SyncInterval: math.MaxInt64 / 4, SyncDuration: math.MaxInt64 - 24*time.Hour - 3*time.Minute - math.MaxInt64/4}, false},
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
	Benign, Malicious         int16 // modulo 200
	Mechanism                 uint8 // modulo 6: the default, the four mechanisms, an unknown one
	PoisonQuery               int8
	ForgedTTL                 int64 // in ns
	PoolQueries               int8  // modulo 8
	IntervalMin               int16 // PoolQueryInterval in minutes
	SyncSec                   int16 // SyncInterval in seconds
	SyncMin                   int16 // SyncDuration in minutes, modulo 121
	Consensus                 int16 // modulo 300
	ResolverAnswers, Addrs    int8  // the resolver's and client's per-response caps
	ResolverTTLMin, ClientTTL int16 // the policies' TTL caps, in minutes
	PlainNTP                  bool
}

// config is the Config f stands for. The sync phase lasts at most two
// hours in steps of a second or more, and pool generation makes at most
// 24 queries, so a run that passes Validate returns within seconds.
func (f fuzzConfig) config() Config {
	return Config{
		Seed:              f.Seed,
		BenignServers:     int(f.Benign) % 200,
		MaliciousServers:  int(f.Malicious) % 200,
		Mechanism:         Mechanism(f.Mechanism % 6),
		PoisonQuery:       int(f.PoisonQuery),
		ForgedTTL:         time.Duration(f.ForgedTTL),
		PoolQueries:       int(f.PoolQueries) % 8,
		PoolQueryInterval: time.Duration(f.IntervalMin) * time.Minute,
		SyncInterval:      time.Duration(f.SyncSec) * time.Second,
		SyncDuration:      time.Duration(f.SyncMin%121) * time.Minute,
		Consensus:         int(f.Consensus) % 300,
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
		{Benign: -5},
		{Malicious: -5},
		{SyncMin: 60, SyncSec: -1},
		{Mechanism: uint8(Defrag), PoisonQuery: 30},
		{Mechanism: uint8(Defrag), PoisonQuery: -1},
		{Consensus: -2},
		{SyncMin: -60},
		{Consensus: 299},
		{PoolQueries: -1},
		{IntervalMin: -60},
		{Mechanism: uint8(Defrag), ForgedTTL: -int64(time.Second)},
		{Mechanism: uint8(Defrag), ForgedTTL: (math.MaxUint32 + 1) * int64(time.Second)},
		{Mechanism: 5},
		{Seed: 3, Mechanism: uint8(Defrag), PoolQueries: 4, PoisonQuery: 2, IntervalMin: 30, SyncMin: 20, PlainNTP: true},
		{Seed: 4, Mechanism: uint8(BGPHijackPersistent), PoolQueries: 3, PoisonQuery: 1, Consensus: 3, ResolverAnswers: 4, Addrs: 4, ClientTTL: 60},
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

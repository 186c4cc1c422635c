package chronos_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"testing"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/wirenet"
)

// memTransport is an in-memory wirenet.Transport: the server on port i
// reads offsets[i%len(offsets)] ms ahead of the client's disciplined
// clock, and every silent-th server never answers (0: all answer).
type memTransport struct {
	offsets []int16
	silent  int
	stepped time.Duration
}

func (m *memTransport) Exchange(server netip.AddrPort, _ time.Duration) (time.Duration, error) {
	i := int(server.Port())
	if m.silent > 0 && i%m.silent == 0 {
		return 0, wirenet.ErrTimeout
	}
	return time.Duration(m.offsets[i%len(m.offsets)])*time.Millisecond - m.stepped, nil
}

func (m *memTransport) Step(delta time.Duration) { m.stepped += delta }

// memPool is a pool of n servers on ports 0..n-1.
func memPool(n int) []netip.AddrPort {
	pool := make([]netip.AddrPort, n)
	for i := range pool {
		pool[i] = netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), uint16(i))
	}
	return pool
}

// TestConfigValidate: every out-of-range config fails Validate with an
// ErrConfig error, and wirenet.NewSyncer refuses exactly those; the edges
// next to them pass. Each bad case records what it did before Validate.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  chronos.Config
		bad  bool
	}{
		// Panicked the first SyncRound: "slice bounds out of range [:-1]".
		{"negative-sample", chronos.Config{SampleSize: -1}, true},
		{"negative-pool-queries", chronos.Config{PoolQueries: -1}, true},
		{"negative-pool-target", chronos.Config{PoolTarget: -4}, true},
		{"negative-query-timeout", chronos.Config{QueryTimeout: -time.Second}, true},
		{"negative-quorum", chronos.Config{MinSources: -1}, true},
		{"quorum-over-sample", chronos.Config{MinSources: 16}, true},

		{"defaults", chronos.Config{}, false},
		{"sample-of-one", chronos.Config{SampleSize: 1, MinSources: 1}, false},
		{"quorum-is-sample", chronos.Config{MinSources: 15}, false},
		{"quorum-in-larger-sample", chronos.Config{SampleSize: 20, MinSources: 16}, false},
		{"paper-caps", chronos.Config{Caps: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.bad != (err != nil) || err != nil && !errors.Is(err, chronos.ErrConfig) {
				t.Fatalf("Validate() = %v, want an ErrConfig error: %v", err, tc.bad)
			}
			tr := &memTransport{offsets: []int16{1}}
			_, err = wirenet.NewSyncer(tr, wirenet.SyncerConfig{Pool: memPool(3), Chronos: tc.cfg})
			if tc.bad != (err != nil) || err != nil && !errors.Is(err, chronos.ErrConfig) {
				t.Fatalf("NewSyncer: err = %v, want an ErrConfig error: %v", err, tc.bad)
			}
		})
	}
}

// fuzzConfig is FuzzConfig's input: fixed-size integers, read little
// endian from the fuzz bytes (zero-padded), that config maps onto a
// Config with every field free to leave its range, and the pool the
// Syncer runs it over.
type fuzzConfig struct {
	Seed                    int64
	Sample, MinSources      int16
	PoolQueries, PoolTarget int16
	TimeoutMs               int16 // QueryTimeout in ms
	Caps                    bool
	Pool, Silent            uint8 // pool size 1..256; every Silent-th server never answers
	Offsets                 [6]int16
}

func (f fuzzConfig) config() chronos.Config {
	return chronos.Config{
		SampleSize: int(f.Sample), MinSources: int(f.MinSources),
		PoolQueries: int(f.PoolQueries), PoolTarget: int(f.PoolTarget),
		QueryTimeout: time.Duration(f.TimeoutMs) * time.Millisecond,
		Caps:         f.Caps,
	}
}

func (f fuzzConfig) bytes() []byte {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, f); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzConfig: Validate either refuses a config with an ErrConfig error,
// and wirenet.NewSyncer then refuses it too, or the Syncer runs one
// SyncRound over an in-memory transport without panicking, and steps the
// clock by exactly the update it reports. The seeds are
// TestConfigValidate's bad cases and paper-caps, and a few valid rounds,
// honest (with and without the caps), split and half silent.
func FuzzConfig(f *testing.F) {
	for _, fc := range []fuzzConfig{
		{},
		{Sample: -1},
		{PoolQueries: -1},
		{PoolTarget: -4},
		{TimeoutMs: -1000},
		{MinSources: -1},
		{MinSources: 16},
		{Caps: true},
		{Seed: 6, Pool: 40, Caps: true, Offsets: [6]int16{3, 5, 4, 2, 3, 4}},
		{Seed: 2, Pool: 40, Offsets: [6]int16{3, 5, 4, 2, 3, 4}},
		{Seed: 3, Pool: 90, Offsets: [6]int16{1, 2, 250, 251, 252, 1}},
		{Seed: 4, Pool: 30, Silent: 2, Sample: 9, MinSources: 3, Offsets: [6]int16{10, 11, 12, -400}},
		{Seed: 5, Pool: 7, Sample: 300, MinSources: 300},
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
		tr := &memTransport{offsets: fc.Offsets[:], silent: int(fc.Silent)}
		verr := cfg.Validate()
		sy, err := wirenet.NewSyncer(tr, wirenet.SyncerConfig{Pool: memPool(int(fc.Pool) + 1), Seed: fc.Seed, Chronos: cfg})
		switch {
		case verr != nil && !errors.Is(verr, chronos.ErrConfig):
			t.Fatalf("%+v: Validate() = %v, not an ErrConfig error", cfg, verr)
		case (verr == nil) != (err == nil) || err != nil && !errors.Is(err, chronos.ErrConfig):
			t.Fatalf("%+v: Validate() = %v but NewSyncer: %v", cfg, verr, err)
		case err != nil:
			return
		}
		round := sy.SyncRound()
		want := time.Duration(0)
		if round.Applied {
			want = round.Update
		}
		if tr.stepped != want {
			t.Fatalf("%+v: round applied %v (%v) but stepped the clock by %v", cfg, round.Update, round.Applied, tr.stepped)
		}
	})
}

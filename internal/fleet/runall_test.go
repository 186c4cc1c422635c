package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chronosntp/internal/mitigation"
)

// TestShardIndependentOfPoisonedCount pins what RunAll's key rests on: a
// shard's result depends on whether it is poisoned, never on how many
// other shards are. Each fleet runs alone, so nothing is shared between
// them: shards 2 and up are honest in all three fleets, shard 1 in the
// first two, and shard 0 is poisoned in the last two.
func TestShardIndependentOfPoisonedCount(t *testing.T) {
	var fleets []*Result
	for poisoned := 0; poisoned <= 2; poisoned++ {
		res, err := Run(context.Background(), testConfig(poisoned), 0)
		if err != nil {
			t.Fatal(err)
		}
		fleets = append(fleets, res)
	}
	same := func(shard, a, b int) {
		t.Helper()
		if sa, sb := fleets[a].Shards[shard], fleets[b].Shards[shard]; !reflect.DeepEqual(sa, sb) {
			t.Fatalf("shard %d differs between %d and %d poisoned:\n%+v\n%+v", shard, a, b, sa, sb)
		}
	}
	for i := 2; i < len(fleets[0].Shards); i++ {
		same(i, 0, 1)
		same(i, 0, 2)
	}
	same(1, 0, 1)
	same(0, 1, 2)
	if !fleets[1].Shards[0].Planted {
		t.Fatal("the poisoned head shard was never planted; the comparison proves little")
	}
}

// TestScheduleE9Grid pins the dedup of E9's default grid (1000 clients,
// 10 resolvers, one trial): 12 fleets of 10 shards are 48 jobs. They are
// the 10 honest shards of each fan-out and mitigation, 40 in all, and
// shards 0 and 1 poisoned under each, 8 in all. A key that kept an attack
// field on honest shards would change no output, only these counts.
func TestScheduleE9Grid(t *testing.T) {
	var cfgs []Config
	for _, poisoned := range []int{0, 1, 2} {
		for _, dist := range []Distribution{Zipf, Uniform} {
			for _, mitigated := range []bool{false, true} {
				cfg := Config{Seed: 1, Clients: 1000, Resolvers: 10, Distribution: dist, Poisoned: poisoned}
				if mitigated {
					cfg.ResolverPolicy = mitigation.PaperResolverPolicy()
					cfg.ClientPolicy = mitigation.PaperClientPolicy()
				}
				cfgs = append(cfgs, cfg.withDefaults())
			}
		}
	}
	jobs, slots := schedule(cfgs)
	shards, poisoned := 0, 0
	for _, s := range slots {
		shards += len(s)
	}
	for _, j := range jobs {
		if j.key.plan.poisoned {
			poisoned++
		}
	}
	if shards != 120 || len(jobs) != 48 || poisoned != 8 {
		t.Fatalf("%d shards planned into %d jobs, %d of them poisoned; want 120 into 48, 8 poisoned", shards, len(jobs), poisoned)
	}
}

// checkRunAll runs a grid through RunAll, and each config alone through
// Run and through the phased API, which builds every shard from the
// caller's config instead of a key. All three must agree: the same
// results, or the first invalid config's validation error.
func checkRunAll(t *testing.T, cfgs []Config, parallel int) {
	t.Helper()
	ctx := context.Background()
	got, allErr := RunAll(ctx, cfgs, parallel)
	wantAllErr := ""
	for i, cfg := range cfgs {
		f := New(cfg)
		var want *Result
		err := f.Build(ctx, parallel)
		if err == nil {
			want, err = f.Simulate(ctx, parallel)
		}
		one, runErr := Run(ctx, cfg, parallel)
		if err != nil {
			if !errors.Is(err, ErrFleet) {
				t.Fatalf("config %d %+v: phased run failed outside validation: %v", i, cfg, err)
			}
			if runErr == nil || runErr.Error() != "config 0: "+err.Error() {
				t.Fatalf("config %d: Run err = %v, phased %v", i, runErr, err)
			}
			if wantAllErr == "" {
				wantAllErr = fmt.Sprintf("config %d: %v", i, err)
			}
			continue
		}
		if runErr != nil {
			t.Fatalf("config %d: Run err = %v, phased run succeeded", i, runErr)
		}
		if !reflect.DeepEqual(one, want) {
			t.Fatalf("config %d %+v: Run differs from the phased run:\nrun:    %+v\nphased: %+v", i, cfg, one, want)
		}
		if allErr == nil && !reflect.DeepEqual(got[i], want) {
			t.Fatalf("config %d %+v: RunAll differs from the phased run:\nall:    %+v\nphased: %+v", i, cfg, got[i], want)
		}
	}
	if allErr != nil && allErr.Error() != wantAllErr || allErr == nil && wantAllErr != "" {
		t.Fatalf("RunAll err = %v, want %q", allErr, wantAllErr)
	}
}

// randomConfig draws a small valid config.
func randomConfig(rng *rand.Rand) Config {
	cfg := Config{
		Seed:          1 + rng.Int63n(3),
		Clients:       20 + rng.Intn(100),
		Resolvers:     1 + rng.Intn(4),
		Distribution:  Distribution(1 + rng.Intn(2)),
		PoolQueries:   2 + rng.Intn(4),
		BenignServers: 120, MaliciousServers: 60,
	}
	cfg.Poisoned = rng.Intn(cfg.Resolvers + 1)
	cfg.PoisonQuery = 1 + rng.Intn(cfg.PoolQueries)
	if rng.Intn(2) == 0 {
		cfg.ResolverPolicy = mitigation.PaperResolverPolicy()
	}
	if rng.Intn(2) == 0 {
		cfg.ClientPolicy = mitigation.PaperClientPolicy()
	}
	return cfg
}

// randomGrid draws 2–6 small valid configs. Each after the first repeats
// an earlier one, is drawn afresh, or changes one field of an earlier one,
// so shards repeat across the grid.
func randomGrid(rng *rand.Rand) []Config {
	cfgs := []Config{randomConfig(rng)}
	for n := 2 + rng.Intn(5); len(cfgs) < n; {
		cfg, fresh := cfgs[rng.Intn(len(cfgs))], randomConfig(rng)
		switch rng.Intn(10) {
		case 0: // a repeat
		case 1:
			cfg = fresh
		case 2:
			cfg.Seed = fresh.Seed
		case 3:
			cfg.Clients, cfg.Resolvers = fresh.Clients, fresh.Resolvers
		case 4:
			cfg.Distribution = fresh.Distribution
		case 5:
			cfg.Poisoned = fresh.Poisoned
		case 6:
			cfg.PoisonQuery = fresh.PoisonQuery
		case 7:
			cfg.PoolQueries = fresh.PoolQueries
		case 8:
			cfg.ResolverPolicy = fresh.ResolverPolicy
		case 9:
			cfg.ClientPolicy = fresh.ClientPolicy
		}
		cfg.Poisoned = min(cfg.Poisoned, cfg.Resolvers)
		cfg.PoisonQuery = min(cfg.PoisonQuery, cfg.PoolQueries)
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestRunAllMatchesRun: on seeded random grids, RunAll returns what each
// config returns alone, at one worker and at two. A first grid runs one
// poisoned resolver at seeds 1–3: poisoned from the twentieth of 24 pool
// queries, its clients' pools end about half malicious, where the shift
// verdict turns on the seed, so a job that lost the seed changes the
// shifted counts; none of the random grids reaches that boundary.
func TestRunAllMatchesRun(t *testing.T) {
	var boundary []Config
	for seed := int64(1); seed <= 3; seed++ {
		boundary = append(boundary, Config{
			Seed: seed, Clients: 30, Resolvers: 1, Poisoned: 1, PoisonQuery: 20,
			BenignServers: 120, MaliciousServers: 60,
		})
	}
	grids := [][]Config{boundary}
	for seed := int64(1); seed <= 8; seed++ {
		grids = append(grids, randomGrid(rand.New(rand.NewSource(seed))))
	}
	for g, cfgs := range grids {
		for _, parallel := range []int{1, 2} {
			t.Run(fmt.Sprintf("grid %d parallel %d", g, parallel), func(t *testing.T) {
				checkRunAll(t, cfgs, parallel)
			})
		}
	}
}

// FuzzRunAll decodes bytes into a grid of 1–4 tiny configs — at most 60
// clients behind at most 4 resolvers, 2–4 pool queries — with arbitrary
// seeds, poisoned counts, poison queries, distributions and §V policies,
// some of them out of range and some configs repeated.
// RunAll must agree with each config run alone, and nothing may panic.
func FuzzRunAll(f *testing.F) {
	// Bytes: grid size, parallel, then per config its seed, shape, attack,
	// pool and repeat bytes.
	// 60 clients behind 2 resolvers of three pool queries, honest, then 1
	// poisoned from each query.
	f.Add([]byte{0x03, 0x80, 1, 0x7b, 0x09, 0x0d, 0, 1, 0x7b, 0x0a, 0x09, 0, 1, 0x7b, 0x0a, 0x0d, 0, 1, 0x7b, 0x0a, 0x11, 0})
	// One poisoned uniform shard under both §V policies, then a repeat.
	f.Add([]byte{0x01, 0x00, 7, 0xa7, 0x12, 0x6e, 0, 0, 0, 0, 0, 0x80})
	// A valid config, then too many poisoned, an unknown distribution and
	// a negative client count.
	f.Add([]byte{0x03, 0x80, 2, 0x7b, 0x4a, 0x0d, 0, 2, 0x7b, 0x0d, 0x0d, 0, 2, 0x7b, 0x19, 0x0d, 0, 2, 0x7d, 0x09, 0x0d, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cfgs := make([]Config, 1+next()%4)
		parallel := 1 + int(next()>>7)
		for i := range cfgs {
			seed, shape, attack, pool, repeat := next(), next(), next(), next(), next()
			if i > 0 && repeat&0x80 != 0 {
				cfgs[i] = cfgs[int(repeat&0x7f)%i]
				continue
			}
			clients := 1 + int(shape&0x3f)
			if clients > 60 {
				clients = 60 - clients // -1..-4
			}
			cfgs[i] = Config{
				Seed:          int64(int8(seed)),
				Clients:       clients,
				Resolvers:     1 + int(shape>>6),
				Poisoned:      int(attack&7) - 1,
				Distribution:  Distribution(attack >> 3 & 3),
				PoolQueries:   2 + int(pool&3)%3,
				PoisonQuery:   int(pool>>2&7) - 1,
				BenignServers: 120, MaliciousServers: 60,
			}
			if pool&0x20 != 0 {
				cfgs[i].ResolverPolicy = mitigation.PaperResolverPolicy()
			}
			if pool&0x40 != 0 {
				cfgs[i].ClientPolicy = mitigation.PaperClientPolicy()
			}
		}
		checkRunAll(t, cfgs, parallel)
	})
}

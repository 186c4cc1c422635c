package runner

import (
	"fmt"

	"chronosntp/internal/core"
)

// Trial is one grid point instantiation: a fully resolved core.Config plus
// the label of the point it replicates.
type Trial struct {
	Point  string      // grid-point label shared by all seeds of the point
	Config core.Config // fully resolved scenario configuration
}

// Toggle is a named mitigation (or any other) configuration mutation — one
// value of the grid's defence dimension. Apply may set any field but reads
// none of the swept ones: grid points are told apart by their labels.
type Toggle struct {
	Name  string
	Apply func(*core.Config)
}

// NoToggle is the identity defence ("none").
func NoToggle() Toggle {
	return Toggle{Name: "none", Apply: func(*core.Config) {}}
}

// Grid is a cartesian experiment specification. Empty dimensions collapse
// to the base config's value, so a Grid with only Seeds set is a plain
// repeated-trial Monte-Carlo run.
type Grid struct {
	Base          core.Config
	Seeds         []int64
	Mechanisms    []core.Mechanism
	PoisonQueries []int
	Toggles       []Toggle
}

// Seeds returns n consecutive seeds starting at base — the replica
// dimension of a grid.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Trials expands the grid in deterministic order: toggles outermost, then
// mechanisms, then poison queries, then seeds — so consecutive indices are
// the Monte-Carlo replicas of a single grid point, and every point's
// replicas share a Point label. The label names the toggle and the
// resolved value of every swept dimension, and a toggle sets fields
// without reading the swept ones, so points that share a label run one
// config. Where several points resolve to one label (the
// all-vs-24h-hijack defence overrides the swept mechanism, and a scenario
// with no attack never reads its poison query), only the first of them is
// kept: every point holds exactly one replica per seed.
func (g Grid) Trials() []Trial {
	toggles := g.Toggles
	if len(toggles) == 0 {
		toggles = []Toggle{NoToggle()}
	}
	mechanisms := g.Mechanisms
	if len(mechanisms) == 0 {
		mechanisms = []core.Mechanism{g.Base.Mechanism}
	}
	queries := g.PoisonQueries
	if len(queries) == 0 {
		queries = []int{g.Base.PoisonQuery}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{g.Base.Seed}
	}

	var out []Trial
	seen := make(map[string]bool)
	for _, tog := range toggles {
		for _, mech := range mechanisms {
			for _, q := range queries {
				resolve := func(seed int64) core.Config {
					cfg := g.Base
					cfg.Seed = seed
					if mech != 0 {
						cfg.Mechanism = mech
					}
					if q != 0 {
						cfg.PoisonQuery = q
					}
					if tog.Apply != nil {
						tog.Apply(&cfg)
					}
					return cfg
				}
				// Label from the resolved config, not the raw dimension
				// values: a toggle may override the swept mechanism or
				// poison query (e.g. the all-vs-24h-hijack defence), and
				// the label must describe what actually runs. Identical
				// resolved points then share a label and one set of
				// replicas instead of appearing as contradictory rows.
				point := pointLabel(tog, resolve(seeds[0]), g)
				if seen[point] {
					continue
				}
				seen[point] = true
				for _, seed := range seeds {
					out = append(out, Trial{Point: point, Config: resolve(seed)})
				}
			}
		}
	}
	return out
}

// pointLabel names a grid point from its resolved (post-toggle) config,
// listing only the dimensions the grid actually sweeps and the resolved
// config reads: an unattacked scenario's label names no poison query.
func pointLabel(tog Toggle, cfg core.Config, g Grid) string {
	label := ""
	add := func(s string) {
		if label != "" {
			label += " "
		}
		label += s
	}
	if len(g.Mechanisms) > 0 {
		add(fmt.Sprintf("mechanism=%s", cfg.Mechanism))
	}
	if len(g.PoisonQueries) > 0 && cfg.Mechanism != core.NoAttack {
		add(fmt.Sprintf("poison-query=%d", cfg.PoisonQuery))
	}
	if len(g.Toggles) > 0 {
		add(fmt.Sprintf("defence=%s", tog.Name))
	}
	if label == "" {
		label = "base"
	}
	return label
}

// Points returns the distinct Point labels in grid order.
func Points(trials []Trial) []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range trials {
		if !seen[t.Point] {
			seen[t.Point] = true
			out = append(out, t.Point)
		}
	}
	return out
}

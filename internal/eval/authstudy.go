package eval

import (
	"context"
	"fmt"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/runner"
	"chronosntp/internal/shiftsim"
)

// E11's poisoned pool, and its target shift and horizon when left at 0.
const (
	authStudyPool      = 133
	authStudyMalicious = 89
	authStudyTarget    = 100 * time.Millisecond
	authStudyHorizon   = 24 * time.Hour
)

// AuthStudy (E11) is the authentication arms race over the paper's
// poisoned pool: for every (attacker move × acceptance policy ×
// authenticated fraction × credential scheme) grid point it runs the
// long-horizon shift engine with the ntpauth decision model
// (shiftsim.AuthModel) and measures whether the greedy attacker still
// reaches the target shift — and what the defence costs the client
// (rejected samples, demobilized associations, panic-mode fallback).
//
// The expected story, pinned by the golden: an unauthenticated client
// falls to every move; per-server credentials with a strong scheme turn
// every move into starvation-not-shift; a forgeable scheme (MD5)
// re-enables all of them; and the chrony-style minsources quorum keeps
// a credential-starved client syncing on the normal path where classic
// C1/C2 (which needs more than 2d = 10 of 15 replies) collapses onto
// panic mode.
//
// target/horizon default to 100 ms / 24 h; move "" or "all" sweeps every
// registered auth move; minSources sizes the quorum-policy arm (0 = 3).
func AuthStudy(seed int64, trials, parallel int, target, horizon time.Duration, move string, minSources int) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	points, target, horizon, minSources, err := authGrid(target, horizon, move, minSources)
	if err != nil {
		return nil, err
	}

	results, err := runner.Map(context.Background(), len(points)*trials, parallel, nil,
		func(i int) (*shiftsim.Result, error) {
			pi, k := i/trials, i%trials
			p := points[pi]
			cfg := shiftsim.Config{
				// Decorrelate the per-point seed blocks (same spacing as E10).
				Seed:      seed + int64(pi)*10_007 + int64(k),
				PoolSize:  authStudyPool,
				Malicious: authStudyMalicious,
				Target:    target,
				Horizon:   horizon,
				RunLength: -1,
				Auth:      &shiftsim.AuthModel{Frac: p.frac, Scheme: p.scheme, Move: p.move},
			}
			if p.quorum {
				cfg.Client = chronos.Config{MinSources: minSources}
			}
			return shiftsim.Run(cfg)
		})
	if err != nil {
		return nil, err
	}

	payload := &AuthStudyPayload{
		Target: target, Horizon: horizon,
		Pool: authStudyPool, Malicious: authStudyMalicious, MinSources: minSources,
	}
	for pi, p := range points {
		policy := "c1c2"
		if p.quorum {
			policy = fmt.Sprintf("minsources-%d", minSources)
		}
		scheme := p.scheme
		if p.frac == 0 {
			scheme = "-" // no credentials: the scheme axis is moot
		}
		var shifted int
		var hits, times, updates, panics, rejects, demob []float64
		for _, r := range results[pi*trials : (pi+1)*trials] {
			hit := 0.0
			if r.Shifted {
				hit = 1
				shifted++
				times = append(times, float64(r.TimeToShift))
			}
			hits = append(hits, hit)
			updates = append(updates, float64(r.Updates))
			panics = append(panics, float64(r.Panics))
			rejects = append(rejects, float64(r.AuthRejected))
			demob = append(demob, float64(r.Demobilized))
		}
		payload.Rows = append(payload.Rows, AuthRow{
			Move: p.move, Policy: policy, AuthFrac: p.frac, Scheme: scheme,
			Hit: describe(hits), ShiftedCount: shifted, TimeToShift: describe(times),
			Updates: describe(updates), Panics: describe(panics),
			AuthRejected: describe(rejects), Demobilized: describe(demob),
		})
	}
	return &Result{Meta: newMeta("E11", seed, trials), Payload: payload}, nil
}

// authPoint is one E11 grid point before execution.
type authPoint struct {
	frac   float64
	scheme string
	quorum bool
	move   string
}

// authGrid resolves the E11 defaults and expands the grid. The fraction
// axis collapses the scheme dimension at 0 (no credentials to grade), so
// each (move × policy) pair contributes 1 + 2×3 points.
func authGrid(target, horizon time.Duration, move string, minSources int) ([]authPoint, time.Duration, time.Duration, int, error) {
	if target == 0 {
		target = authStudyTarget
	}
	if horizon == 0 {
		horizon = authStudyHorizon
	}
	if minSources == 0 {
		minSources = 3
	}
	moves := shiftsim.AuthMoves()
	if move != "" && move != "all" {
		if shiftsim.AuthMoveDescription(move) == "" {
			return nil, 0, 0, 0, fmt.Errorf("eval: unknown auth move %q (valid: %v)", move, moves)
		}
		moves = []string{move}
	}
	var points []authPoint
	for _, mv := range moves {
		for _, quorum := range []bool{false, true} {
			points = append(points, authPoint{frac: 0, scheme: shiftsim.SchemeSHA256, quorum: quorum, move: mv})
			for _, frac := range []float64{0.67, 1} {
				for _, scheme := range shiftsim.AuthSchemes() {
					points = append(points, authPoint{frac: frac, scheme: scheme, quorum: quorum, move: mv})
				}
			}
		}
	}
	return points, target, horizon, minSources, nil
}

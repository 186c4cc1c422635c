package shiftsim

import (
	"errors"
	"testing"
	"time"
)

// authCfg is the shared E11-shaped configuration: the paper's poisoned
// pool under the default greedy strategy.
func authCfg(horizon time.Duration, auth *AuthModel) Config {
	return Config{
		Seed: 7, PoolSize: 133, Malicious: 89,
		Target: 100 * time.Millisecond, Horizon: horizon,
		RunLength: -1, Auth: auth,
	}
}

func TestAuthValidation(t *testing.T) {
	cases := []Config{
		authCfg(time.Hour, &AuthModel{Frac: -0.1}),
		authCfg(time.Hour, &AuthModel{Frac: 1.5}),
		authCfg(time.Hour, &AuthModel{Scheme: "rot13"}),
		authCfg(time.Hour, &AuthModel{Move: "teleport"}),
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); !errors.Is(err, ErrBadAuth) {
			t.Errorf("case %d: err = %v, want ErrBadAuth", i, err)
		}
	}
	wire := authCfg(time.Hour, &AuthModel{Frac: 1})
	wire.Wire = true
	if _, err := Run(wire); !errors.Is(err, ErrBadAuth) {
		t.Errorf("wire+auth: err = %v, want ErrBadAuth", err)
	}
}

// TestAuthFracZeroMatchesNilModel pins the pass-through property the E10
// goldens rely on: an unauthenticated client under the plain shift move
// consumes the RNG exactly like the pre-auth engine, so the two runs are
// field-for-field identical.
func TestAuthFracZeroMatchesNilModel(t *testing.T) {
	base, err := Run(authCfg(12*time.Hour, nil))
	if err != nil {
		t.Fatal(err)
	}
	lax, err := Run(authCfg(12*time.Hour, &AuthModel{Frac: 0, Move: MoveShift}))
	if err != nil {
		t.Fatal(err)
	}
	if lax.AuthRejected != 0 || lax.Demobilized != 0 {
		t.Fatalf("lax pass-through counted rejects %d / demobilized %d", lax.AuthRejected, lax.Demobilized)
	}
	if *base != *lax {
		t.Fatalf("frac-0 shift diverged from the nil model:\nnil  = %+v\nfrac0 = %+v", base, lax)
	}
}

// TestAuthShiftMove: the plain pool-level attack against credentials.
// Strong per-server credentials turn the 2/3-poisoned pool attack into
// starvation (the attacker's replies never verify), while a forgeable
// scheme re-enables it unchanged.
func TestAuthShiftMove(t *testing.T) {
	t.Run("require-strong-defeats-poisoned-pool", func(t *testing.T) {
		res, err := Run(authCfg(12*time.Hour, &AuthModel{Frac: 1, Scheme: SchemeSHA256}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Shifted {
			t.Fatalf("shifted through SHA-256 credentials: %+v", res)
		}
		if res.AuthRejected == 0 {
			t.Fatal("no attacker replies were rejected")
		}
		if res.MaxOffset > 20*time.Millisecond {
			t.Errorf("max offset %v, want small (attacker never verified)", res.MaxOffset)
		}
	})
	t.Run("forgeable-scheme-reenables-attack", func(t *testing.T) {
		res, err := Run(authCfg(12*time.Hour, &AuthModel{Frac: 1, Scheme: SchemeMD5}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Shifted {
			t.Fatalf("forgeable MD5 credentials did not re-enable the shift: %+v", res)
		}
	})
}

// TestAuthMACStrip: the full-MitM tamper move. A client that does not
// require authentication accepts the rewritten replies and is shifted
// in the minimum number of rounds; a require-auth client under a strong
// scheme rejects everything — total starvation, but no shift.
func TestAuthMACStrip(t *testing.T) {
	t.Run("lax-client-falls-immediately", func(t *testing.T) {
		res, err := Run(authCfg(6*time.Hour, &AuthModel{Frac: 0, Move: MoveMACStrip}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Shifted {
			t.Fatalf("MitM tamper did not shift the lax client: %+v", res)
		}
		if res.RoundsToShift > 8 {
			t.Errorf("RoundsToShift = %d, want ≤ 8 (every sample is attacker-controlled)", res.RoundsToShift)
		}
	})
	t.Run("require-strong-starves-but-holds", func(t *testing.T) {
		res, err := Run(authCfg(6*time.Hour, &AuthModel{Frac: 1, Scheme: SchemeNTS, Move: MoveMACStrip}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Shifted {
			t.Fatalf("shifted through stripped NTS credentials: %+v", res)
		}
		if res.Updates != 0 || res.PanicUpdates != 0 {
			t.Fatalf("updates %d / panic updates %d under total starvation, want 0/0", res.Updates, res.PanicUpdates)
		}
		if res.AuthRejected == 0 {
			t.Fatal("nothing was rejected under mac-strip")
		}
	})
	t.Run("forgeable-scheme-tampers-through", func(t *testing.T) {
		res, err := Run(authCfg(6*time.Hour, &AuthModel{Frac: 1, Scheme: SchemeMD5, Move: MoveMACStrip}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Shifted {
			t.Fatalf("MD5 re-sealing did not shift the require-auth client: %+v", res)
		}
	})
}

// TestAuthForgeKoD: forged DENY kisses permanently demobilize a
// KoD-compliant unauthenticated client's benign associations (after
// which the attacker owns every sample), while a require-auth client
// ignores the unauthenticated kisses entirely.
func TestAuthForgeKoD(t *testing.T) {
	t.Run("lax-client-demobilized-then-shifted", func(t *testing.T) {
		res, err := Run(authCfg(24*time.Hour, &AuthModel{Frac: 0, Move: MoveForgeKoD}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Demobilized != 133-89 {
			t.Fatalf("Demobilized = %d, want all %d benign servers", res.Demobilized, 133-89)
		}
		if !res.Shifted {
			t.Fatalf("attacker-only pool did not shift the lax client: %+v", res)
		}
	})
	t.Run("require-auth-ignores-forged-kisses", func(t *testing.T) {
		res, err := Run(authCfg(6*time.Hour, &AuthModel{Frac: 1, Scheme: SchemeSHA256, Move: MoveForgeKoD}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Demobilized != 0 {
			t.Fatalf("require-auth client believed %d forged kisses", res.Demobilized)
		}
		if res.Shifted {
			t.Fatalf("shifted under forge-kod with strong credentials: %+v", res)
		}
		if res.MaxOffset > 20*time.Millisecond {
			t.Errorf("max offset %v, want small (honest replies stand)", res.MaxOffset)
		}
	})
}

// TestAuthCookieReplay: replayed authenticated responses are rejected by
// the unique-identifier/origin binding unless the scheme is forgeable
// (in which case the attacker just forges fresh credentials).
func TestAuthCookieReplay(t *testing.T) {
	t.Run("nts-binding-rejects-replay", func(t *testing.T) {
		res, err := Run(authCfg(6*time.Hour, &AuthModel{Frac: 1, Scheme: SchemeNTS, Move: MoveCookieReplay}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Shifted {
			t.Fatalf("shifted through replayed NTS responses: %+v", res)
		}
		if res.Updates != 0 || res.PanicUpdates != 0 {
			t.Fatalf("updates %d / panic updates %d, want starvation", res.Updates, res.PanicUpdates)
		}
		if res.AuthRejected == 0 {
			t.Fatal("no replays were rejected")
		}
	})
	t.Run("forgeable-scheme-shifts", func(t *testing.T) {
		res, err := Run(authCfg(12*time.Hour, &AuthModel{Frac: 1, Scheme: SchemeMD5, Move: MoveCookieReplay}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Shifted {
			t.Fatalf("forgeable scheme did not shift under cookie-replay: %+v", res)
		}
	})
}

// TestAuthQuorumKeepsStarvedClientSyncing is the policy-axis contrast:
// with full strong credentials the attacker's replies never verify, so a
// classic C1/C2 client (MinReplies ≥ 10) is starved onto the panic-mode
// fallback, while a chrony-style minsources quorum keeps accepting the
// small authenticated cluster on the normal path. Neither shifts.
func TestAuthQuorumKeepsStarvedClientSyncing(t *testing.T) {
	auth := &AuthModel{Frac: 1, Scheme: SchemeSHA256}

	classic, err := Run(authCfg(6*time.Hour, auth))
	if err != nil {
		t.Fatal(err)
	}
	// ~5 of 15 samples verify, under the MinReplies ≥ 10 floor: normal-path
	// updates need a ≥10-credentialed draw, rare enough to be incidental.
	if classic.Updates > 5 {
		t.Fatalf("classic client got %d normal-path updates from ~5 verified samples", classic.Updates)
	}
	if classic.PanicUpdates == 0 {
		t.Fatal("classic client never fell back to panic mode")
	}

	qcfg := authCfg(6*time.Hour, auth)
	qcfg.Client.MinSources = 3
	quorum, err := Run(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	if quorum.Updates <= 10*classic.Updates || quorum.Updates < 100 {
		t.Fatalf("quorum normal-path updates = %d (classic %d), want routine acceptance",
			quorum.Updates, classic.Updates)
	}
	if quorum.Shifted || classic.Shifted {
		t.Fatalf("shifted under strong credentials (classic=%v quorum=%v)", classic.Shifted, quorum.Shifted)
	}
	if quorum.MaxOffset > 20*time.Millisecond {
		t.Errorf("quorum client max offset %v, want small", quorum.MaxOffset)
	}
}

// TestAuthMoveRegistry pins the separate move registry: the auth moves
// must not leak into the strategy registry E10 sweeps.
func TestAuthMoveRegistry(t *testing.T) {
	moves := AuthMoves()
	want := []string{MoveCookieReplay, MoveForgeKoD, MoveMACStrip, MoveShift}
	if len(moves) != len(want) {
		t.Fatalf("AuthMoves() = %v, want %v", moves, want)
	}
	for i := range want {
		if moves[i] != want[i] {
			t.Fatalf("AuthMoves() = %v, want %v", moves, want)
		}
	}
	for _, m := range moves {
		if AuthMoveDescription(m) == "" {
			t.Errorf("move %q has no description", m)
		}
		if _, err := ByName(m); err == nil && m != "" {
			t.Errorf("auth move %q leaked into the strategy registry", m)
		}
	}
	for _, s := range AuthSchemes() {
		if (s == SchemeMD5) != SchemeForgeable(s) {
			t.Errorf("SchemeForgeable(%q) = %v", s, SchemeForgeable(s))
		}
	}
}

package shiftsim

import (
	"fmt"
	"sort"
	"time"
)

// This file is the compressed-mode model of authenticated time: instead
// of sealing and verifying credentials per packet, the engine models
// their *decision outcome* per sample — accepted, rejected by the
// client's credential policy, or converted into a believed
// kiss-of-death. Two of those outcomes have packet-level counterparts
// in internal/ntpauth, which chronos/auth_test.go shows on packets: a
// require-auth client refuses bare replies, and forged DENY kisses
// demobilize only a client that believes KoD. A replayed reply fails
// the origin check every client runs (ntpauth.ClientAuth.CheckReply).
// No test compares this model with packets cell by cell, and MD5's
// forgeability has no packet counterpart.

// Authentication schemes the model distinguishes. Only their forgery
// resistance matters at round granularity: SchemeMD5 stands for a broken
// MAC algorithm the MitM attacker can forge at line rate, the others
// for credentials the attacker cannot mint, so SchemeSHA256 and
// SchemeNTS run the same code.
const (
	SchemeMD5    = "md5"
	SchemeSHA256 = "sha256"
	SchemeNTS    = "nts"
)

// authSchemes maps each scheme to whether the modeled attacker can
// forge its credentials.
var authSchemes = map[string]bool{
	SchemeMD5:    true,
	SchemeSHA256: false,
	SchemeNTS:    false,
}

// AuthSchemes lists the valid AuthModel.Scheme values, sorted.
func AuthSchemes() []string {
	out := make([]string, 0, len(authSchemes))
	for name := range authSchemes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SchemeForgeable reports whether the modeled MitM attacker can forge
// credentials under the named scheme (true only for SchemeMD5).
func SchemeForgeable(scheme string) bool { return authSchemes[scheme] }

// Attacker moves in the authentication arms race. These are deliberately
// a separate registry from the shift strategies: a Strategy decides the
// *offset* malicious servers serve, a move decides what the on-path
// attacker does to the authentication layer around every reply.
const (
	// MoveShift: no tampering with benign traffic; only the attacker's
	// own pool servers lie (the plain E10 attack, now facing credentials).
	MoveShift = "shift"
	// MoveMACStrip: full MitM — every benign reply is intercepted,
	// stripped of its credentials and rewritten to the strategy's plan
	// (re-sealed only when the scheme is forgeable).
	MoveMACStrip = "mac-strip"
	// MoveForgeKoD: every benign reply is replaced with an
	// unauthenticated DENY kiss; a client that believes it demobilizes
	// that association permanently (RFC 8915 §5.7 is the defence).
	MoveForgeKoD = "forge-kod"
	// MoveCookieReplay: replies from credentialed servers are replaced
	// with replays of old authenticated responses; unique-identifier /
	// origin binding rejects them unless the scheme is forgeable.
	MoveCookieReplay = "cookie-replay"
)

// authMoves maps each move name to its one-line description (reused by
// cmd/attacksim's flag help).
var authMoves = map[string]string{
	MoveShift:        "no auth-layer tampering; only attacker pool servers lie",
	MoveMACStrip:     "strip/rewrite benign replies (re-sealed iff the scheme is forgeable)",
	MoveForgeKoD:     "replace benign replies with unauthenticated DENY kisses",
	MoveCookieReplay: "replay old authenticated responses at credentialed servers",
}

// AuthMoves lists the valid AuthModel.Move values, sorted.
func AuthMoves() []string {
	out := make([]string, 0, len(authMoves))
	for name := range authMoves {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AuthMoveDescription returns the one-line description of a registered
// move ("" for unknown names).
func AuthMoveDescription(name string) string { return authMoves[name] }

// AuthModel parameterises the authentication layer of a compressed run.
// A nil AuthModel on Config leaves the engine bit-identical to the
// pre-auth behaviour (no extra RNG draws, no dropped samples).
type AuthModel struct {
	// Frac is the fraction of *benign* pool servers the client holds
	// credentials for: the first ⌊Frac·benign⌋ server indices are the
	// authenticated ones. Frac > 0 puts the client in require-auth mode
	// (it drops every sample it cannot verify); Frac = 0 models the
	// unauthenticated-but-KoD-compliant baseline.
	Frac float64
	// Scheme is the credential strength: SchemeMD5 (attacker-forgeable),
	// SchemeSHA256 or SchemeNTS. Empty means SchemeSHA256.
	Scheme string
	// Move is the attacker's auth-layer behaviour, one of AuthMoves().
	// Empty means MoveShift.
	Move string
}

// withDefaults resolves the zero values.
func (a AuthModel) withDefaults() AuthModel {
	if a.Scheme == "" {
		a.Scheme = SchemeSHA256
	}
	if a.Move == "" {
		a.Move = MoveShift
	}
	return a
}

// validate rejects out-of-range fractions and unregistered names.
func (a AuthModel) validate() error {
	if !(a.Frac >= 0 && a.Frac <= 1) { // NaN included
		return fmt.Errorf("%w: auth fraction %v outside [0,1]", ErrBadAuth, a.Frac)
	}
	if _, ok := authSchemes[a.Scheme]; !ok {
		return fmt.Errorf("%w: unknown scheme %q (valid: %v)", ErrBadAuth, a.Scheme, AuthSchemes())
	}
	if _, ok := authMoves[a.Move]; !ok {
		return fmt.Errorf("%w: unknown move %q (valid: %v)", ErrBadAuth, a.Move, AuthMoves())
	}
	return nil
}

// authOffset is sampleOffset behind the authentication layer: it returns
// the offset the client computes from pool member id and whether the
// sample survives verification at all. Rejected samples consume no
// jitter RNG draw — determinism is per configuration, and the nil-model
// path never reaches this function.
func (e *engine) authOffset(id int, theta, plan time.Duration) (time.Duration, bool) {
	if id >= e.benign {
		// Attacker pool server serving the strategy's plan: a require-auth
		// client only accepts it when the scheme lets the attacker forge.
		if e.reqAuth && !e.forge {
			e.res.AuthRejected++
			return 0, false
		}
		return plan, true
	}
	authed := id < e.authCount
	switch e.cfg.Auth.Move {
	case MoveMACStrip:
		// Full MitM: every benign reply is rewritten to the plan.
		if !e.reqAuth {
			return plan, true
		}
		if authed && e.forge {
			return plan, true // stripped, rewritten and re-sealed
		}
		e.res.AuthRejected++
		return 0, false
	case MoveForgeKoD:
		if e.reqAuth {
			if !authed {
				e.res.AuthRejected++
				return 0, false
			}
			// The kiss is unauthenticated; a require-auth association
			// ignores it and the genuine reply stands.
			return e.sampleOffset(id, theta, plan), true
		}
		if !e.kodDead[id] {
			e.kodDead[id] = true
			e.res.Demobilized++
		}
		return 0, false // believed DENY: no sample now, none ever again
	case MoveCookieReplay:
		if authed {
			if e.forge {
				return plan, true // forged afresh; no need to replay
			}
			e.res.AuthRejected++ // uid/origin binding rejects the replay
			return 0, false
		}
		if e.reqAuth {
			e.res.AuthRejected++
			return 0, false
		}
		return e.sampleOffset(id, theta, plan), true
	default: // MoveShift: benign traffic untouched
		if e.reqAuth && !authed {
			e.res.AuthRejected++
			return 0, false
		}
		return e.sampleOffset(id, theta, plan), true
	}
}

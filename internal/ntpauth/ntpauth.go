// Package ntpauth implements authenticated NTP for the simulation and
// real-wire stacks: the classic symmetric-key layer (MD5/SHA-1/SHA-256
// keyed digests appended to the packet as a key-ID + digest trailer,
// RFC 5905 appendix style) and Kiss-o'-Death (RATE/DENY/RSTR) code
// handling for the client state machine.
//
// The package is pure policy + crypto over ntpwire's framing: servers
// hold a ServerAuth (key table, require/deny policy) and clients a
// ClientAuth (one key per association). The verify path is
// allocation-free in steady state — reusable digest state,
// constant-time comparison — because it sits on the wirenet read loop
// whose 0 allocs/op bar is gated in CI.
//
// Quickstart — a keyed server and a require-auth client association:
//
//	key := ntpauth.Key{ID: 1, Algo: ntpauth.AlgoSHA256, Secret: secret}
//	tbl, _ := ntpauth.NewKeyTable(key)
//	srv := &ntpauth.ServerAuth{Keys: tbl}             // ntpserver.Config.Auth
//	cli := &ntpauth.ClientAuth{Key: key, Require: true} // chronos.AuthPolicy.ForServer
//
// The full arms race — which attacker moves survive which client
// policies — is experiment E11, which runs shiftsim's compressed
// AuthModel rather than these packets:
//
//	go run ./cmd/attacksim -experiment E11
package ntpauth

import (
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"fmt"

	"chronosntp/internal/ntpwire"
)

// Algorithm identifies a symmetric-MAC digest algorithm.
type Algorithm uint8

// Supported digest algorithms. MD5 and SHA-1 are kept deliberately:
// the E11 arms race treats MD5 MACs as forgeable by the modeled
// attacker, matching their real-world status.
const (
	AlgoNone Algorithm = iota
	AlgoMD5
	AlgoSHA1
	AlgoSHA256
)

// MaxDigestSize is the largest digest any Algorithm produces.
const MaxDigestSize = sha256.Size

// DigestSize returns the digest length in bytes (0 for AlgoNone).
func (a Algorithm) DigestSize() int {
	switch a {
	case AlgoMD5:
		return md5.Size
	case AlgoSHA1:
		return sha1.Size
	case AlgoSHA256:
		return sha256.Size
	default:
		return 0
	}
}

// TrailerSize returns the on-wire MAC trailer size: key ID + digest.
func (a Algorithm) TrailerSize() int {
	if a == AlgoNone {
		return 0
	}
	return ntpwire.MACKeyIDSize + a.DigestSize()
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoNone:
		return "none"
	case AlgoMD5:
		return "md5"
	case AlgoSHA1:
		return "sha1"
	case AlgoSHA256:
		return "sha256"
	default:
		return "Algorithm(?)"
	}
}

// Key is one symmetric key: a 32-bit identifier shared out of band, the
// digest algorithm, and the secret.
type Key struct {
	ID     uint32
	Algo   Algorithm
	Secret []byte
}

// KeyTable maps key IDs to keys, the server-side analogue of ntp.keys.
type KeyTable struct {
	byID map[uint32]Key
}

// NewKeyTable builds a table from keys. Invalid keys (see Add) are
// reported by error.
func NewKeyTable(keys ...Key) (*KeyTable, error) {
	t := &KeyTable{byID: make(map[uint32]Key, len(keys))}
	for _, k := range keys {
		if err := t.Add(k); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Add inserts k. It rejects keys with no algorithm or secret, duplicate
// IDs, and IDs whose low 16 bits equal the key's own trailer length —
// such a trailer's key-ID bytes would parse as a valid extension-field
// header spanning exactly the trailer, making ntpwire.SplitAuth
// ambiguous (the model's analogue of RFC 7822's length restrictions).
func (t *KeyTable) Add(k Key) error {
	if k.Algo == AlgoNone || k.Algo.DigestSize() == 0 {
		return fmt.Errorf("ntpauth: key %d has no algorithm", k.ID)
	}
	if len(k.Secret) == 0 {
		return fmt.Errorf("ntpauth: key %d has an empty secret", k.ID)
	}
	if int(uint16(k.ID)) == k.Algo.TrailerSize() {
		return fmt.Errorf("ntpauth: key ID %d is wire-ambiguous for %s trailers", k.ID, k.Algo)
	}
	if _, dup := t.byID[k.ID]; dup {
		return fmt.Errorf("ntpauth: duplicate key ID %d", k.ID)
	}
	t.byID[k.ID] = k
	return nil
}

// Lookup returns the key for id.
func (t *KeyTable) Lookup(id uint32) (Key, bool) {
	if t == nil {
		return Key{}, false
	}
	k, ok := t.byID[id]
	return k, ok
}

package ntpauth

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"chronosntp/internal/ntpwire"
)

// This file models RFC 8915 (Network Time Security) at the fidelity
// the simulations need: opaque AEAD cookies minted and opened by the
// server, per-request unique identifiers, authenticator extension
// fields covering the packet as associated data, and a fresh cookie
// returned encrypted inside every response. Two deliberate
// simplifications, both documented here so nobody mistakes this for a
// deployable NTS stack: key establishment is a seeded derivation
// standing in for the NTS-KE TLS exporter, and the AEAD is AES-GCM
// with counter nonces standing in for AES-SIV-CMAC-256. Neither changes
// the properties the experiments measure (per-request cookie
// uniqueness, unforgeability without the master key, response binding
// to the request's unique identifier).

const (
	// ntsKeySize is the AES-128 session-key size (c2s and s2c).
	ntsKeySize = 16
	// ntsNonceSize is the GCM nonce size.
	ntsNonceSize = 12
	// ntsTagSize is the GCM tag size.
	ntsTagSize = 16
	// CookieSize is the opaque cookie length on the wire:
	// nonce ‖ AEAD(c2s ‖ s2c).
	CookieSize = ntsNonceSize + 2*ntsKeySize + ntsTagSize
	// UIDSize is the unique-identifier length.
	UIDSize = 16
)

func newAESGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// NTSServer is the server half of the NTS layer: it holds the master
// cookie key under which session keys travel, opaque to clients. Not
// safe for concurrent use (the nonce counter and scratch are shared);
// each responder owns one.
type NTSServer struct {
	aead  cipher.AEAD
	ctr   uint64
	nonce [ntsNonceSize]byte
}

// NewNTSServer builds a server from a 16/24/32-byte master key.
func NewNTSServer(master []byte) (*NTSServer, error) {
	aead, err := newAESGCM(master)
	if err != nil {
		return nil, fmt.Errorf("ntpauth: bad NTS master key: %w", err)
	}
	return &NTSServer{aead: aead}, nil
}

func (s *NTSServer) nextNonce() []byte {
	s.ctr++
	binary.BigEndian.PutUint64(s.nonce[ntsNonceSize-8:], s.ctr)
	return s.nonce[:]
}

// MintCookie appends one fresh opaque cookie carrying (c2s, s2c) onto
// dst. Every cookie is unique: the nonce is a strictly increasing
// counter.
func (s *NTSServer) MintCookie(dst []byte, c2s, s2c *[ntsKeySize]byte) []byte {
	nonce := s.nextNonce()
	dst = append(dst, nonce...)
	var keys [2 * ntsKeySize]byte
	copy(keys[:ntsKeySize], c2s[:])
	copy(keys[ntsKeySize:], s2c[:])
	return s.aead.Seal(dst, nonce, keys[:], nil)
}

// OpenCookie decrypts a cookie minted by this server's master key into
// c2s and s2c.
func (s *NTSServer) OpenCookie(cookie []byte, c2s, s2c *[ntsKeySize]byte) bool {
	if len(cookie) != CookieSize {
		return false
	}
	var keys [2*ntsKeySize + ntsTagSize]byte
	pt, err := s.aead.Open(keys[:0], cookie[:ntsNonceSize], cookie[ntsNonceSize:], nil)
	if err != nil || len(pt) != 2*ntsKeySize {
		return false
	}
	copy(c2s[:], pt[:ntsKeySize])
	copy(s2c[:], pt[ntsKeySize:])
	return true
}

// NTSRequest is the server-side result of authenticating one request:
// what SealResponse needs to answer it.
type NTSRequest struct {
	UID [UIDSize]byte
	C2S [ntsKeySize]byte
	S2C [ntsKeySize]byte
}

// parseAuthenticator unpacks an authenticator body
// (nonceLen ‖ ctLen ‖ nonce ‖ ciphertext) produced by appendAuthenticator.
func parseAuthenticator(body []byte) (nonce, ct []byte, ok bool) {
	if len(body) < 4 {
		return nil, nil, false
	}
	nl := int(binary.BigEndian.Uint16(body[0:2]))
	cl := int(binary.BigEndian.Uint16(body[2:4]))
	if nl != ntsNonceSize || 4+nl+cl > len(body) {
		return nil, nil, false
	}
	return body[4 : 4+nl], body[4+nl : 4+nl+cl], true
}

// appendAuthenticator appends an NTS authenticator extension field to
// dst: AEAD-seal plaintext with ad = everything already in dst (the
// packet so far), using the supplied nonce.
func appendAuthenticator(dst []byte, aead cipher.AEAD, nonce, plaintext []byte) []byte {
	ad := dst
	body := make([]byte, 0, 4+len(nonce)+len(plaintext)+ntsTagSize)
	body = binary.BigEndian.AppendUint16(body, uint16(len(nonce)))
	body = binary.BigEndian.AppendUint16(body, uint16(len(plaintext)+ntsTagSize))
	body = append(body, nonce...)
	body = aead.Seal(body, nonce, plaintext, ad)
	return ntpwire.AppendExtension(dst, ntpwire.ExtNTSAuthenticator, body)
}

// VerifyRequest authenticates an NTS-protected request datagram. It
// splits raw, locates the unique-identifier, cookie and authenticator
// fields, opens the cookie under the master key, and checks the
// authenticator AEAD over everything preceding it. On success st holds
// the session keys and unique identifier for SealResponse.
func (s *NTSServer) VerifyRequest(raw []byte, st *NTSRequest) bool {
	ext, mac, ok := ntpwire.SplitAuth(raw)
	if !ok || len(mac) != 0 {
		return false
	}
	var uid, cookie, authBody []byte
	authStart := -1
	it := ntpwire.IterExtensions(ext)
	for {
		typ, body, more := it.Next()
		if !more {
			break
		}
		switch typ {
		case ntpwire.ExtUniqueIdentifier:
			if len(body) >= UIDSize {
				uid = body[:UIDSize]
			}
		case ntpwire.ExtNTSCookie:
			if len(body) >= CookieSize {
				cookie = body[:CookieSize]
			}
		case ntpwire.ExtNTSAuthenticator:
			authBody = body
			authStart = it.Start()
		}
	}
	if uid == nil || cookie == nil || authBody == nil {
		return false
	}
	if !s.OpenCookie(cookie, &st.C2S, &st.S2C) {
		return false
	}
	nonce, ct, ok := parseAuthenticator(authBody)
	if !ok {
		return false
	}
	c2sAEAD, err := newAESGCM(st.C2S[:])
	if err != nil {
		return false
	}
	ad := raw[:ntpwire.PacketSize+authStart]
	if _, err := c2sAEAD.Open(nil, nonce, ct, ad); err != nil {
		return false
	}
	copy(st.UID[:], uid)
	return true
}

// SealResponse appends the NTS response extensions to the encoded reply
// in out: the echoed unique identifier, then an authenticator sealed
// with the session's s2c key whose ciphertext carries one fresh cookie
// (the RFC 8915 cookie-replenishment rule, keeping the client's supply
// steady at one cookie consumed, one returned).
func (s *NTSServer) SealResponse(out []byte, st *NTSRequest) []byte {
	out = ntpwire.AppendExtension(out, ntpwire.ExtUniqueIdentifier, st.UID[:])
	fresh := s.MintCookie(make([]byte, 0, CookieSize), &st.C2S, &st.S2C)
	s2cAEAD, err := newAESGCM(st.S2C[:])
	if err != nil {
		return out
	}
	var nonce [ntsNonceSize]byte
	copy(nonce[:], s.nextNonce())
	return appendAuthenticator(out, s2cAEAD, nonce[:], fresh)
}

// NTSSession is one client association's NTS state after key
// establishment: the session keys, the cookie pool, and the unique
// identifier of the in-flight request. Not safe for concurrent use.
type NTSSession struct {
	c2s, s2c [ntsKeySize]byte
	c2sAEAD  cipher.AEAD
	s2cAEAD  cipher.AEAD
	cookies  [][]byte
	ctr      uint64
	lastUID  [UIDSize]byte
	pending  bool
}

func deriveHalf(seed int64, label byte) (key [ntsKeySize]byte) {
	var material [9]byte
	binary.BigEndian.PutUint64(material[:8], uint64(seed))
	material[8] = label
	sum := sha256.Sum256(material[:])
	copy(key[:], sum[:ntsKeySize])
	return key
}

// Establish models the NTS-KE phase for one association: client and
// server agree on c2s/s2c keys derived from seed (standing in for the
// TLS exporter secret) and the client walks away with n initial cookies
// minted by srv.
func Establish(srv *NTSServer, seed int64, n int) (*NTSSession, error) {
	sess := &NTSSession{
		c2s: deriveHalf(seed, 'c'),
		s2c: deriveHalf(seed, 's'),
	}
	var err error
	if sess.c2sAEAD, err = newAESGCM(sess.c2s[:]); err != nil {
		return nil, err
	}
	if sess.s2cAEAD, err = newAESGCM(sess.s2c[:]); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		sess.cookies = append(sess.cookies, srv.MintCookie(make([]byte, 0, CookieSize), &sess.c2s, &sess.s2c))
	}
	return sess, nil
}

// SealRequest appends the NTS request extensions (fresh unique
// identifier, one cookie from the pool, authenticator over the whole
// packet) to the encoded 48-byte request in dst. ok is false when the
// cookie pool is empty — the caller must re-establish, exactly the
// state an NTS client reaches after too many lost responses.
func (c *NTSSession) SealRequest(dst []byte) ([]byte, bool) {
	if len(c.cookies) == 0 {
		return dst, false
	}
	cookie := c.cookies[0]
	c.cookies = c.cookies[1:]
	c.ctr++
	var material [ntsKeySize + 8]byte
	copy(material[:], c.c2s[:])
	binary.BigEndian.PutUint64(material[ntsKeySize:], c.ctr)
	sum := sha256.Sum256(material[:])
	copy(c.lastUID[:], sum[:UIDSize])
	c.pending = true

	dst = ntpwire.AppendExtension(dst, ntpwire.ExtUniqueIdentifier, c.lastUID[:])
	dst = ntpwire.AppendExtension(dst, ntpwire.ExtNTSCookie, cookie)
	var nonce [ntsNonceSize]byte
	binary.BigEndian.PutUint64(nonce[ntsNonceSize-8:], c.ctr)
	return appendAuthenticator(dst, c.c2sAEAD, nonce[:], nil), true
}

// VerifyResponse authenticates a response datagram against the
// in-flight request: the unique identifier must echo the one
// SealRequest generated (this is what defeats replay of old responses)
// and the authenticator must verify under s2c. The fresh cookie inside
// the authenticator refills the pool.
func (c *NTSSession) VerifyResponse(raw []byte) bool {
	if !c.pending {
		return false
	}
	ext, mac, ok := ntpwire.SplitAuth(raw)
	if !ok || len(mac) != 0 {
		return false
	}
	var uid, authBody []byte
	authStart := -1
	it := ntpwire.IterExtensions(ext)
	for {
		typ, body, more := it.Next()
		if !more {
			break
		}
		switch typ {
		case ntpwire.ExtUniqueIdentifier:
			if len(body) >= UIDSize {
				uid = body[:UIDSize]
			}
		case ntpwire.ExtNTSAuthenticator:
			authBody = body
			authStart = it.Start()
		}
	}
	if uid == nil || authBody == nil {
		return false
	}
	if string(uid) != string(c.lastUID[:]) {
		return false
	}
	nonce, ct, ok := parseAuthenticator(authBody)
	if !ok {
		return false
	}
	ad := raw[:ntpwire.PacketSize+authStart]
	pt, err := c.s2cAEAD.Open(nil, nonce, ct, ad)
	if err != nil {
		return false
	}
	if len(pt) == CookieSize {
		c.cookies = append(c.cookies, append([]byte(nil), pt...))
	}
	c.pending = false
	return true
}

package ntpauth

import "chronosntp/internal/ntpwire"

// Policy glue: ServerAuth is what a responder (sim or real-socket)
// holds, ClientAuth is what one client association holds. Both are
// nil-safe — a nil policy is "no authentication" and leaves packets
// untouched, which is how every pre-auth code path keeps emitting
// byte-identical traffic.

// RequestAuth is the classification of one inbound request datagram.
type RequestAuth struct {
	MAC   bool   // a MAC trailer verified
	KeyID uint32 // the key it verified under (MAC)
	Bad   bool   // authentication material present but invalid
}

// Authenticated reports whether the request carried valid credentials.
func (ra *RequestAuth) Authenticated() bool { return ra.MAC && !ra.Bad }

// ServerAuth is a responder's authentication policy: the symmetric keys
// it accepts, and whether unauthenticated clients are served or kissed
// off. Not safe for concurrent use; each read loop owns one.
type ServerAuth struct {
	Keys    *KeyTable // symmetric keys accepted (nil: MAC requests are Bad)
	Require bool      // true: unauthenticated requests get a DENY kiss

	mac *MACer
}

func (a *ServerAuth) macer() *MACer {
	if a.mac == nil {
		a.mac = NewMACer(a.Keys)
	}
	return a.mac
}

// Authenticate classifies raw (a full request datagram) into ra,
// overwriting it. A nil policy classifies everything as unauthenticated.
// Extension fields without a MAC trailer are Bad: no credential this
// package verifies travels in them.
func (a *ServerAuth) Authenticate(raw []byte, ra *RequestAuth) {
	*ra = RequestAuth{}
	if a == nil {
		return
	}
	ext, mac, ok := ntpwire.SplitAuth(raw)
	if !ok {
		ra.Bad = true
		return
	}
	if len(mac) > 0 {
		if a.Keys == nil {
			ra.Bad = true
			return
		}
		keyID, ok := a.macer().Verify(raw[:len(raw)-len(mac)], mac)
		if ok {
			ra.MAC = true
			ra.KeyID = keyID
		} else {
			ra.Bad = true
		}
		return
	}
	ra.Bad = len(ext) > 0
}

// KissFor returns the kiss code policy demands for a request classified
// as ra, or 0 when the request should be served normally.
func (a *ServerAuth) KissFor(ra *RequestAuth) KissCode {
	if a == nil {
		return 0
	}
	if a.Require && !ra.Authenticated() {
		return KissDENY
	}
	return 0
}

// SealResponse mirrors the request's authentication onto the encoded
// reply in out: a MAC-authenticated request gets a MAC trailer under
// the same key. It is allocation-free given spare capacity in out.
func (a *ServerAuth) SealResponse(out []byte, ra *RequestAuth) []byte {
	if a != nil && ra.MAC {
		out, _ = a.macer().AppendMAC(out, ra.KeyID, out)
	}
	return out
}

// ClientAuth is one client association's authentication policy: a
// symmetric key (or none), plus whether unauthenticated replies are
// acceptable. Not safe for concurrent use.
type ClientAuth struct {
	Key     Key  // Algo != AlgoNone: symmetric-MAC mode
	Require bool // true: drop replies that are not authenticated

	mac    *MACer
	macErr bool
}

// Enabled reports whether any authentication is configured.
func (c *ClientAuth) Enabled() bool {
	return c != nil && c.Key.Algo != AlgoNone
}

// RequiresAuth reports whether unauthenticated replies (and kisses)
// must be ignored on this association.
func (c *ClientAuth) RequiresAuth() bool { return c != nil && c.Require }

func (c *ClientAuth) macer() *MACer {
	if c.mac == nil && !c.macErr {
		table, err := NewKeyTable(c.Key)
		if err != nil {
			c.macErr = true
			return nil
		}
		c.mac = NewMACer(table)
	}
	return c.mac
}

// SealRequest appends this association's MAC trailer to the encoded
// request in dst. An invalid key sends the request bare — the
// association then starves under Require, which is the honest failure
// mode.
func (c *ClientAuth) SealRequest(dst []byte) []byte {
	if c.Enabled() {
		if m := c.macer(); m != nil {
			dst, _ = m.AppendMAC(dst, c.Key.ID, dst)
		}
	}
	return dst
}

// VerifyResponse checks a reply datagram against this association's
// policy. authenticated reports whether the reply carried valid
// credentials; acceptable reports whether the client may use it:
// authenticated replies always are, bare replies only without Require,
// and replies with invalid credentials never are (present-but-wrong
// auth is active tampering, not a downgrade).
func (c *ClientAuth) VerifyResponse(raw []byte) (authenticated, acceptable bool) {
	if !c.Enabled() {
		return false, true
	}
	ext, mac, ok := ntpwire.SplitAuth(raw)
	if !ok {
		return false, false
	}
	if len(ext) == 0 && len(mac) == 0 {
		return false, !c.Require
	}
	if len(mac) == 0 {
		return false, false
	}
	m := c.macer()
	if m == nil {
		return false, false
	}
	keyID, ok := m.Verify(raw[:len(raw)-len(mac)], mac)
	if !ok || keyID != c.Key.ID {
		return false, false
	}
	return true, true
}

// Reply is CheckReply's classification of one reply datagram.
type Reply uint8

// Reply classes.
const (
	ReplyDrop   Reply = iota // malformed, unsolicited, or not a usable server reply: keep waiting
	ReplyReject              // a server reply the authentication policy refuses: keep waiting
	ReplyKiss                // an origin-valid kiss, folded into the association state: the exchange is over
	ReplyOK                  // a valid reply the policy accepts: take its time
)

// CheckReply is the reply check every client runs on the datagrams it
// receives: decode payload into resp, then require the origin echo of
// the request transmitted at origin, a server mode and a non-zero
// stratum, and this association's authentication policy (a nil c
// accepts bare replies). An origin-valid Kiss-o'-Death is folded into st
// — believed only when authenticated on a require-auth association (RFC
// 8915 §5.7) — and reported as ReplyKiss; a nil st ignores kisses, which
// then fail the stratum check.
func (c *ClientAuth) CheckReply(resp *ntpwire.Packet, payload []byte, origin ntpwire.Timestamp, st *AssocState) Reply {
	if ntpwire.DecodeInto(resp, payload) != nil {
		return ReplyDrop
	}
	if st != nil && IsKoD(resp) {
		if resp.OriginTime != origin {
			return ReplyDrop
		}
		authed, _ := c.VerifyResponse(payload)
		st.OnKoD(Code(resp), authed, c.RequiresAuth())
		return ReplyKiss
	}
	if !ntpwire.ValidServerResponse(resp, origin) {
		return ReplyDrop
	}
	if _, acceptable := c.VerifyResponse(payload); !acceptable {
		return ReplyReject
	}
	return ReplyOK
}

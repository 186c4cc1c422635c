package ntpauth

import (
	"time"

	"chronosntp/internal/ntpwire"
)

// Kiss-o'-Death handling (RFC 5905 §7.4): a stratum-0 mode-4 packet
// whose ReferenceID carries a 4-character ASCII "kiss code". KoD is the
// protocol's access-control channel — and, unauthenticated, a denial
// weapon: a MitM forging DENY kisses can demobilize a client's honest
// associations one by one. The client state machine here implements the
// RFC's mandatory behavior (DENY/RSTR demobilize, RATE backs off) plus
// RFC 8915 §5.7's rule, applied to every require-auth association, that
// kisses which fail authentication are ignored.

// KissCode is the 4-character ASCII code in a KoD packet's ReferenceID.
type KissCode uint32

// The kiss codes the stack implements.
const (
	KissRATE KissCode = 0x52415445 // "RATE": reduce your polling rate
	KissDENY KissCode = 0x44454e59 // "DENY": access denied, demobilize
	KissRSTR KissCode = 0x52535452 // "RSTR": access restricted, demobilize
)

// String returns the 4 ASCII characters.
func (k KissCode) String() string {
	return string([]byte{byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)})
}

// IsKoD reports whether p is a Kiss-o'-Death packet: a mode-4 reply
// with stratum 0.
func IsKoD(p *ntpwire.Packet) bool {
	return p.Mode == ntpwire.ModeServer && p.Stratum == 0
}

// Code extracts the kiss code from a KoD packet.
func Code(p *ntpwire.Packet) KissCode { return KissCode(p.ReferenceID) }

// Demobilize reports whether code requires dropping the association
// (DENY and RSTR do; RATE asks only for back-off).
func Demobilize(code KissCode) bool {
	return code == KissDENY || code == KissRSTR
}

// FillKoD writes a Kiss-o'-Death reply to req into p: stratum 0, the
// kiss code in ReferenceID, and the client's transmit timestamp echoed
// in the origin field so the reply passes the origin check like any
// genuine reply would.
func FillKoD(p *ntpwire.Packet, code KissCode, req *ntpwire.Packet, now time.Time) {
	ts := ntpwire.TimestampFromTime(now)
	*p = ntpwire.Packet{
		Leap:         ntpwire.LeapUnsync,
		Version:      ntpwire.Version,
		Mode:         ntpwire.ModeServer,
		Stratum:      0,
		Poll:         req.Poll,
		ReferenceID:  uint32(code),
		OriginTime:   req.TransmitTime,
		ReceiveTime:  ts,
		TransmitTime: ts,
	}
}

// AssocState is one client association's KoD state machine.
type AssocState struct {
	Dead        bool // DENY/RSTR received: association demobilized
	RateStrikes int  // RATE kisses received: back-off pressure
}

// OnKoD folds one kiss into the state machine. authenticated reports
// whether the KoD packet itself passed the association's authentication
// policy; per RFC 8915 §5.7 an authenticated association MUST ignore
// unauthenticated kisses (this is exactly what disarms the forged-KoD
// denial move), while an unauthenticated association believes any kiss.
// requireAuth marks the association as authenticated.
func (s *AssocState) OnKoD(code KissCode, authenticated, requireAuth bool) {
	if requireAuth && !authenticated {
		return
	}
	switch {
	case Demobilize(code):
		s.Dead = true
	case code == KissRATE:
		s.RateStrikes++
	}
}

// Usable reports whether the association may still be queried.
func (s *AssocState) Usable() bool { return !s.Dead }

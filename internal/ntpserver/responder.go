package ntpserver

import (
	"sync"
	"sync/atomic"
	"time"

	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// processing is the server's delay between its receive and transmit
// timestamps.
const processing = 10 * time.Microsecond

// Responder is the transport-independent core of an NTP server: given a
// decoded client request and a receive timestamp, it fills in the mode-4
// reply. The simnet Server and the real-socket wirenet.Server both
// delegate here, so the two serving paths cannot drift — a reply is a
// pure function of (config, strategy, now, request), whichever wire
// carried the request.
//
// Respond is safe for concurrent use: the query counter is atomic and
// strategy invocations are serialised under a mutex (shift strategies may
// be stateful). The clock must not be stepped while the responder is
// serving.
type Responder struct {
	cfg     Config
	mu      sync.Mutex // serialises strategy access on the concurrent wire path
	queries atomic.Uint64
}

// NewResponder builds a Responder with cfg's defaults resolved.
func NewResponder(cfg Config) *Responder {
	return &Responder{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration (defaults applied).
func (r *Responder) Config() Config { return r.cfg }

// Respond answers one mode-3 client request received at (true) time now
// from the given address, overwriting resp with the reply. It returns
// false — leaving resp untouched — when the request is not a client-mode
// packet. No allocation occurs: this is the steady serve path of the
// real-socket server.
func (r *Responder) Respond(resp *ntpwire.Packet, now time.Time, req *ntpwire.Packet, from simnet.Addr) bool {
	if req.Mode != ntpwire.ModeClient {
		return false
	}
	r.queries.Add(1)

	shift := time.Duration(0)
	r.mu.Lock()
	if r.cfg.Strategy != nil {
		shift = r.cfg.Strategy.Shift(now, req, from)
	}
	r.mu.Unlock()
	recv := r.cfg.Clock.Now(now).Add(shift)
	xmit := r.cfg.Clock.Now(now.Add(processing)).Add(shift)

	*resp = ntpwire.Packet{
		Leap:           ntpwire.LeapNone,
		Version:        ntpwire.Version,
		Mode:           ntpwire.ModeServer,
		Stratum:        2,
		Poll:           req.Poll,
		Precision:      -23,
		RootDelay:      ntpwire.ShortFromDuration(5 * time.Millisecond),
		RootDispersion: ntpwire.ShortFromDuration(time.Millisecond),
		ReferenceID:    0x53494D00, // "SIM\0"
		ReferenceTime:  ntpwire.TimestampFromTime(recv.Add(-30 * time.Second)),
		OriginTime:     req.TransmitTime,
		ReceiveTime:    ntpwire.TimestampFromTime(recv),
		TransmitTime:   ntpwire.TimestampFromTime(xmit),
	}
	return true
}

// ServeState is per-caller scratch for ServeDatagram: the decoded
// request and reply packets and the request's authentication
// classification. Each read loop (or simnet server) owns one, keeping
// the steady serve path free of per-request allocation.
type ServeState struct {
	Req  ntpwire.Packet
	Resp ntpwire.Packet
	RA   ntpauth.RequestAuth
}

// ServeDatagram is the authenticated, transport-independent serve path:
// classify the raw datagram's credentials against the configured
// ntpauth.ServerAuth, apply the kiss-o'-death policy, then fill, encode
// and credential-seal the reply into out[:0], returning the reply bytes
// and whether one should be sent. The simnet Server and the real-socket
// wirenet.Server both call exactly this function, so authenticated
// replies are byte-identical across transports — the property the
// conformance suite pins. With a nil Auth policy the output bytes are
// identical to Respond + AppendEncode, i.e. the pre-auth wire format.
//
// Requests whose credentials are present but invalid (a bad MAC, or
// extension fields with no MAC trailer) are dropped silently: answering
// would give a MAC oracle, and RFC 5905's crypto-NAK adds nothing the
// experiments measure. The MAC path performs no heap allocation given spare
// capacity in out.
//
// Unlike Respond, ServeDatagram must not be called concurrently for the
// same underlying Auth policy state; wirenet serialises it with a mutex
// when running multiple listeners.
func (r *Responder) ServeDatagram(out []byte, now time.Time, raw []byte, st *ServeState, from simnet.Addr) ([]byte, bool) {
	if err := ntpwire.DecodeInto(&st.Req, raw); err != nil {
		return out, false
	}
	auth := r.cfg.Auth
	auth.Authenticate(raw, &st.RA)
	if st.RA.Bad {
		return out, false
	}
	if st.Req.Mode != ntpwire.ModeClient {
		return out, false
	}
	if kiss := auth.KissFor(&st.RA); kiss != 0 {
		// Kisses are stamped from the server's own clock and sealed like
		// any reply, so authenticated associations can tell a genuine
		// kiss from a forged one (RFC 8915 §5.7).
		r.queries.Add(1)
		ntpauth.FillKoD(&st.Resp, kiss, &st.Req, r.cfg.Clock.Now(now))
		out = st.Resp.AppendEncode(out[:0])
		return auth.SealResponse(out, &st.RA), true
	}
	if !r.Respond(&st.Resp, now, &st.Req, from) {
		return out, false
	}
	out = st.Resp.AppendEncode(out[:0])
	return auth.SealResponse(out, &st.RA), true
}

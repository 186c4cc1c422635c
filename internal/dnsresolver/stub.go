package dnsresolver

import (
	"errors"
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// ErrStubTimeout is delivered when the resolver does not answer a stub in
// time.
var ErrStubTimeout = errors.New("dnsresolver: stub query timeout")

// Stub is a minimal DNS client used by the simulated systems (the Chronos
// client, the classic NTP client, the SMTP trigger, web clients) to talk
// to a shared resolver over UDP.
type Stub struct {
	host     *simnet.Host
	resolver simnet.Addr
	timeout  time.Duration
}

// NewStub builds a stub on host pointing at resolver. A zero timeout
// defaults to 5 s.
func NewStub(host *simnet.Host, resolver simnet.Addr, timeout time.Duration) *Stub {
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	return &Stub{host: host, resolver: resolver, timeout: timeout}
}

// Lookup sends one query and invokes cb exactly once with the matching
// response or an error after the timeout. The callback receives the raw
// answer records.
func (s *Stub) Lookup(name string, qtype dnswire.Type, cb Callback) {
	net := s.host.Net()
	txid := uint16(net.Rand().Intn(1 << 16))
	port := s.host.EphemeralPort()
	done := false
	var timer simnet.Timer

	finish := func(res Result) {
		if done {
			return
		}
		done = true
		timer.Cancel()
		s.host.Close(port)
		cb(res)
	}

	err := s.host.Listen(port, func(now time.Time, meta simnet.Meta, payload []byte) {
		if meta.From != s.resolver {
			return
		}
		msg, err := dnswire.Decode(payload)
		if err != nil || !msg.Response || msg.ID != txid {
			return
		}
		switch {
		case msg.RCode == dnswire.RCodeNoError && len(msg.Answers) == 0:
			finish(Result{Err: ErrNoData, From: "resolver"}) // NODATA
		case msg.RCode == dnswire.RCodeNoError:
			finish(Result{RRs: msg.Answers, From: "resolver"})
		case msg.RCode == dnswire.RCodeNXDomain:
			finish(Result{Err: ErrNXDomain, From: "resolver"})
		default:
			finish(Result{Err: ErrServFail, From: "resolver"})
		}
	})
	if err != nil {
		cb(Result{Err: err})
		return
	}
	msg := dnswire.NewQuery(txid, name, qtype)
	b, err := msg.Encode()
	if err != nil {
		finish(Result{Err: err})
		return
	}
	if err := s.host.SendUDP(port, s.resolver, b); err != nil {
		finish(Result{Err: err})
		return
	}
	timer = net.After(s.timeout, func() { finish(Result{Err: ErrStubTimeout}) })
}

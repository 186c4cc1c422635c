package wirenet

import (
	"fmt"
	"net/netip"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/simnet"
)

// SimTransport is the conformance tests' Transport on the simulator: each
// Exchange runs Client.Query — the exchange chronos.Client makes in every
// experiment —
// and pumps Client's network for timeout of virtual time. Client's
// clock is the transport's client clock. Client must not be seeded or
// built, or it would run sync rounds of its own.
type SimTransport struct {
	Client *chronos.Client
}

var _ Transport = (*SimTransport)(nil)

// Step implements Transport.
func (t *SimTransport) Step(delta time.Duration) {
	t.Client.Clock().Step(t.Client.Net().Now(), delta)
}

// Exchange implements Transport on the simulated network.
func (t *SimTransport) Exchange(server netip.AddrPort, timeout time.Duration) (time.Duration, error) {
	var (
		off time.Duration
		got bool
	)
	t.Client.Query(simnet.AddrFromAddrPort(server), timeout, func(o, _ time.Duration, ok bool) { off, got = o, ok })
	t.Client.Net().RunFor(timeout)
	if !got {
		return 0, fmt.Errorf("%w: %s", ErrTimeout, server)
	}
	return off, nil
}

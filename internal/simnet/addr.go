package simnet

import (
	"fmt"
	"net/netip"
	"strconv"
)

// IP is an IPv4 address.
type IP [4]byte

// IPv4 builds an IP from four octets.
func IPv4(a, b, c, d byte) IP { return IP{a, b, c, d} }

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return strconv.Itoa(int(ip[0])) + "." + strconv.Itoa(int(ip[1])) + "." +
		strconv.Itoa(int(ip[2])) + "." + strconv.Itoa(int(ip[3]))
}

// InPrefix reports whether ip falls inside the prefix defined by base and
// prefix length bits (0..32). Used by BGP-hijack taps to match victim
// prefixes.
func (ip IP) InPrefix(base IP, bits int) bool {
	if bits <= 0 {
		return true
	}
	if bits > 32 {
		bits = 32
	}
	u := uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
	b := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	mask := ^uint32(0) << (32 - uint(bits))
	return u&mask == b&mask
}

// Addr is a UDP endpoint.
type Addr struct {
	IP   IP
	Port uint16
}

// String renders the endpoint as ip:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// AddrPort converts the simulated endpoint into a net/netip endpoint.
// This is the bridge the real-socket layer (internal/wirenet) uses: the
// same four address octets name a host on the simulated internet and a
// loopback/interface address on the real one, so topology descriptions
// are transport-independent.
func (a Addr) AddrPort() netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4(a.IP), a.Port)
}

// AddrFromAddrPort maps a real IPv4 (or IPv4-mapped IPv6) endpoint into
// simnet address space — the inverse of Addr.AddrPort, allocation-free.
// Non-IPv4 addresses map to the zero IP with the port preserved.
func AddrFromAddrPort(ap netip.AddrPort) Addr {
	ip := ap.Addr().Unmap()
	if !ip.Is4() {
		return Addr{Port: ap.Port()}
	}
	return Addr{IP: IP(ip.As4()), Port: ap.Port()}
}

package ntpwire

import "encoding/binary"

// This file splits the two post-header regions an authenticated NTPv4
// datagram may carry after the 48-byte header: RFC 7822 extension
// fields (type/length framed, 4-byte aligned) and the classic RFC 5905
// symmetric-MAC trailer (4-byte key ID + message digest). The framing
// lives here, next to the header codec, so every consumer — the
// simulated servers, the real-socket wirenet path and the ntpauth
// crypto layer — splits a datagram identically. Like the header codec
// it is allocation-free: SplitAuth aliases the input. No field type is
// interpreted; a MAC'd datagram that also carries extension fields
// still verifies over everything before its trailer.
//
// Parsing precedence: extension fields are consumed greedily from
// offset 48; a trailing region that does not parse as a field and has
// a legal MAC length is the symmetric-MAC trailer. RFC 7822 resolves
// the same ambiguity with minimum-length rules; our analogue is that
// ntpauth.KeyTable rejects key IDs whose low 16 bits equal their own
// trailer length, so a real trailer can never masquerade as a field.

const (
	// ExtHeaderSize is the type+length preamble of one extension field.
	ExtHeaderSize = 4
	// MACKeyIDSize is the key-ID prefix of a symmetric MAC trailer.
	MACKeyIDSize = 4
)

// IsMACTrailerLen reports whether n is a legal symmetric-MAC trailer
// length: a 4-byte key ID plus an MD5 (16), SHA-1 (20) or SHA-256 (32)
// digest.
func IsMACTrailerLen(n int) bool { return n == 20 || n == 24 || n == 36 }

// SplitAuth splits a full datagram into its extension-field region and
// symmetric-MAC trailer, both aliasing b. ok is false when b is shorter
// than a header or the post-header region is malformed (a region that
// neither parses as fields nor ends in a legal MAC length). A bare
// 48-byte packet returns two empty slices and ok.
func SplitAuth(b []byte) (ext, mac []byte, ok bool) {
	if len(b) < PacketSize {
		return nil, nil, false
	}
	rest := b[PacketSize:]
	off := 0
	for {
		rem := len(rest) - off
		if rem == 0 {
			return rest[:off], nil, true
		}
		if rem >= ExtHeaderSize {
			l := int(binary.BigEndian.Uint16(rest[off+2 : off+4]))
			if l >= ExtHeaderSize && l%4 == 0 && l <= rem {
				off += l
				continue
			}
		}
		if IsMACTrailerLen(rem) {
			return rest[:off], rest[off:], true
		}
		return nil, nil, false
	}
}

package ntpwire

import "encoding/binary"

// This file adds the two post-header regions an authenticated NTPv4
// datagram may carry after the 48-byte header: RFC 7822 extension
// fields (type/length framed, 4-byte aligned) and the classic RFC 5905
// symmetric-MAC trailer (4-byte key ID + message digest). The framing
// lives here, next to the header codec, so every consumer — the
// simulated servers, the real-socket wirenet path and the ntpauth
// crypto layer — splits a datagram identically. Like the header codec
// it is allocation-free: AppendExtension writes onto a caller-owned
// buffer and SplitAuth/ExtIter alias the input.
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

// NTS extension-field types (RFC 8915 §7.6 registry values).
const (
	ExtUniqueIdentifier uint16 = 0x0104
	ExtNTSCookie        uint16 = 0x0204
	ExtNTSAuthenticator uint16 = 0x0404
)

// IsMACTrailerLen reports whether n is a legal symmetric-MAC trailer
// length: a 4-byte key ID plus an MD5 (16), SHA-1 (20) or SHA-256 (32)
// digest.
func IsMACTrailerLen(n int) bool { return n == 20 || n == 24 || n == 36 }

// AppendExtension appends one extension field (type, body, zero padding
// to a 4-byte boundary) onto dst and returns the extended slice. With
// spare capacity no allocation occurs. Bodies longer than 65531 bytes
// do not fit the 16-bit length field and are rejected by returning dst
// unchanged; real fields here are at most ~100 bytes.
func AppendExtension(dst []byte, typ uint16, body []byte) []byte {
	pad := (4 - len(body)&3) & 3
	total := ExtHeaderSize + len(body) + pad
	if total > 0xFFFF {
		return dst
	}
	var hdr [ExtHeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], typ)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(total))
	dst = append(dst, hdr[:]...)
	dst = append(dst, body...)
	for i := 0; i < pad; i++ {
		dst = append(dst, 0)
	}
	return dst
}

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

// ExtIter walks the extension-field region returned by SplitAuth
// without allocating. Bodies alias the region and include any padding
// bytes; consumers with fixed-size contents slice them down.
type ExtIter struct {
	ext   []byte
	off   int
	start int
}

// IterExtensions starts an iteration over ext.
func IterExtensions(ext []byte) ExtIter { return ExtIter{ext: ext} }

// Next returns the next field. ok is false at the end of the region or
// on a malformed field (SplitAuth-validated input never hits the
// latter).
func (it *ExtIter) Next() (typ uint16, body []byte, ok bool) {
	if it.off+ExtHeaderSize > len(it.ext) {
		return 0, nil, false
	}
	l := int(binary.BigEndian.Uint16(it.ext[it.off+2 : it.off+4]))
	if l < ExtHeaderSize || l%4 != 0 || it.off+l > len(it.ext) {
		return 0, nil, false
	}
	it.start = it.off
	typ = binary.BigEndian.Uint16(it.ext[it.off : it.off+2])
	body = it.ext[it.off+ExtHeaderSize : it.off+l]
	it.off += l
	return typ, body, true
}

// Start returns the offset within the extension region of the field
// most recently returned by Next — used to bound the associated data of
// an NTS authenticator, which covers everything before its own field.
func (it *ExtIter) Start() int { return it.start }

package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Name-encoding errors.
var (
	ErrNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnswire: empty label")
	ErrBadPointer   = errors.New("dnswire: bad compression pointer")
	ErrNameLoop     = errors.New("dnswire: compression pointer loop")
)

// maxNameWire is the maximum encoded length of a domain name (RFC 1035 §3.1).
const maxNameWire = 255

// NormalizeName lower-cases a domain name and strips a trailing dot,
// yielding the canonical form used throughout this package ("" is the
// root). A name already in canonical form is returned unchanged without
// allocating — the common case on the parse and cache hot paths, where
// every name has already passed through normalization once.
func NormalizeName(name string) string {
	if len(name) > 0 && name[len(name)-1] == '.' {
		name = name[:len(name)-1]
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; 'A' <= c && c <= 'Z' {
			return strings.ToLower(name)
		}
	}
	return name
}

// InZone reports whether name equals zone or is a subdomain of it
// (both in canonical form). The resolver's bailiwick check uses this.
func InZone(name, zone string) bool {
	name, zone = NormalizeName(name), NormalizeName(zone)
	if zone == "" {
		return true
	}
	if name == zone {
		return true
	}
	return strings.HasSuffix(name, "."+zone)
}

// splitLabels splits a canonical name into labels, validating lengths.
func splitLabels(name string) ([]string, error) {
	name = NormalizeName(name)
	if name == "" {
		return nil, nil
	}
	labels := strings.Split(name, ".")
	total := 1 // root byte
	for _, l := range labels {
		if l == "" {
			return nil, fmt.Errorf("%w in %q", ErrEmptyLabel, name)
		}
		if len(l) > 63 {
			return nil, fmt.Errorf("%w: %q", ErrLabelTooLong, l)
		}
		total += 1 + len(l)
	}
	if total > maxNameWire {
		return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	return labels, nil
}

// EncodedNameLen returns the wire length of name encoded without
// compression.
func EncodedNameLen(name string) (int, error) {
	labels, err := splitLabels(name)
	if err != nil {
		return 0, err
	}
	n := 1
	for _, l := range labels {
		n += 1 + len(l)
	}
	return n, nil
}

// compressor tracks name suffixes already emitted so later names can point
// at them (RFC 1035 §4.1.4). A nil compressor disables compression.
type compressor struct {
	offsets map[string]int
}

func newCompressor() *compressor {
	return &compressor{offsets: make(map[string]int)}
}

// appendName encodes name at the current end of buf, using c for
// compression when non-nil. It walks the canonical name by byte offset —
// every suffix of a canonical name is a substring, so label iteration and
// the compressor's suffix keys need no per-name slice or join allocations.
func appendName(buf []byte, name string, c *compressor) ([]byte, error) {
	name = NormalizeName(name)
	if name == "" {
		return append(buf, 0), nil
	}
	// Validate with the same checks (and error forms) splitLabels applies.
	total := 1 // root byte
	start := 0
	for i := 0; i <= len(name); i++ {
		if i < len(name) && name[i] != '.' {
			continue
		}
		l := i - start
		if l == 0 {
			return nil, fmt.Errorf("%w in %q", ErrEmptyLabel, name)
		}
		if l > 63 {
			return nil, fmt.Errorf("%w: %q", ErrLabelTooLong, name[start:i])
		}
		total += 1 + l
		start = i + 1
	}
	if total > maxNameWire {
		return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	pos := 0
	for pos < len(name) {
		end := pos
		for end < len(name) && name[end] != '.' {
			end++
		}
		if c != nil {
			suffix := name[pos:]
			if off, ok := c.offsets[suffix]; ok && off <= 0x3FFF {
				return append(buf, byte(0xC0|off>>8), byte(off)), nil
			}
			if len(buf) <= 0x3FFF {
				c.offsets[suffix] = len(buf)
			}
		}
		buf = append(buf, byte(end-pos))
		buf = append(buf, name[pos:end]...)
		pos = end + 1
	}
	return append(buf, 0), nil
}

// readName decodes a (possibly compressed) name starting at off in msg.
// It returns the canonical name and the offset just past the name in the
// original (non-pointer) stream.
func readName(msg []byte, off int) (string, int, error) {
	// Any legal name fits in 255 octets of wire, so its canonical form
	// fits this stack buffer and the name costs one string allocation.
	var nb [maxNameWire]byte
	n := 0
	jumped := false
	after := off
	hops := 0
	for {
		if off < 0 || off >= len(msg) {
			return "", 0, ErrBadPointer
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				after = off + 1
			}
			return string(nb[:n]), after, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrBadPointer
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if !jumped {
				after = off + 2
			}
			jumped = true
			hops++
			if hops > 64 || ptr >= off {
				return "", 0, ErrNameLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type %#x", b&0xC0)
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, ErrBadPointer
			}
			sep := 0
			if n > 0 {
				sep = 1
			}
			if n+sep+l > maxNameWire {
				return "", 0, ErrNameTooLong
			}
			if sep == 1 {
				nb[n] = '.'
				n++
			}
			for _, ch := range msg[off+1 : off+1+l] {
				if 'A' <= ch && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				nb[n] = ch
				n++
			}
			off += 1 + l
			if !jumped {
				after = off
			}
		}
	}
}

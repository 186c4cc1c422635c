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

// compressor remembers where each name suffix was first written so later
// names can point at it (RFC 1035 §4.1.4). It keeps a first-occurrence
// list of (suffix, offset) pairs: a message holds a handful of distinct
// suffixes, so a linear scan beats hashing, and the inline table keeps
// the whole compressor on the encoder's stack. A nil compressor disables
// compression.
type compressor struct {
	base   int // buf offset of the message's first byte
	n      int // pairs used in inline
	inline [16]suffixAt
	spill  []suffixAt // pairs past the inline table, in order
}

// suffixAt is a name suffix and its offset from the message's first byte.
type suffixAt struct {
	suffix string
	off    int
}

// find returns the offset the suffix was first written at.
func (c *compressor) find(suffix string) (int, bool) {
	for _, e := range c.inline[:c.n] {
		if e.suffix == suffix {
			return e.off, true
		}
	}
	for _, e := range c.spill {
		if e.suffix == suffix {
			return e.off, true
		}
	}
	return 0, false
}

// add records a suffix written at off.
func (c *compressor) add(suffix string, off int) {
	if c.n < len(c.inline) {
		c.inline[c.n] = suffixAt{suffix, off}
		c.n++
		return
	}
	c.spill = append(c.spill, suffixAt{suffix, off})
}

// appendName encodes name at the current end of buf, compressing it
// against the suffixes c holds. It walks the canonical name by byte
// offset — every suffix of a canonical name is a substring, so label
// iteration and the compressor's suffix keys need no per-name slice or
// join allocations — and checks each label as it writes it, with the
// checks (and error forms) splitLabels applies: labels left to right,
// then the length. A suffix the compressor holds is not checked again; it
// was checked when first written, and a name that fails a check fails the
// whole encode.
func appendName(buf []byte, name string, c *compressor) ([]byte, error) {
	name = NormalizeName(name)
	pos := 0
	for pos < len(name) {
		suffix := name[pos:]
		if off, ok := c.find(suffix); ok {
			buf = append(buf, byte(0xC0|off>>8), byte(off))
			break
		}
		// A pointer holds 14 bits, so only suffixes that start within
		// the first 16 KiB can be pointed at.
		if off := len(buf) - c.base; off <= 0x3FFF {
			c.add(suffix, off)
		}
		end := pos
		for end < len(name) && name[end] != '.' {
			end++
		}
		switch {
		case end == pos:
			return nil, fmt.Errorf("%w in %q", ErrEmptyLabel, name)
		case end-pos > 63:
			return nil, fmt.Errorf("%w: %q", ErrLabelTooLong, name[pos:end])
		case end == len(name)-1: // a trailing dot: the last label is empty
			return nil, fmt.Errorf("%w in %q", ErrEmptyLabel, name)
		}
		buf = append(buf, byte(end-pos))
		buf = append(buf, name[pos:end]...)
		pos = end + 1
	}
	if pos >= len(name) { // every label written: end with the root
		buf = append(buf, 0)
	}
	if len(name)+2 > maxNameWire {
		return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	return buf, nil
}

// nameTable remembers the names one decode has read that start with a
// label, by offset, so that a name which is only a compression pointer to
// one of them — every answer of a pool response points at the question —
// is that name's string again instead of a fresh copy. The table is
// inline so it lives on decode's stack; once full it stops recording,
// which costs allocations but never changes a decoded name.
type nameTable struct {
	n  int
	at [8]nameAt
}

// nameAt is a name read at off.
type nameAt struct {
	off  int
	name string
}

// readName decodes a (possibly compressed) name starting at off in msg.
// It returns the canonical name and the offset just past the name in the
// original (non-pointer) stream.
func readName(msg []byte, off int, names *nameTable) (string, int, error) {
	if off+1 < len(msg) && msg[off]&0xC0 == 0xC0 {
		// The walk below would follow a backward pointer to a name
		// already read and return the same bytes. The pointer adds one
		// hop, so the table records only names read in fewer than 64.
		if ptr := int(msg[off]&0x3F)<<8 | int(msg[off+1]); ptr < off {
			for _, e := range names.at[:names.n] {
				if e.off == ptr {
					return e.name, off + 2, nil
				}
			}
		}
	}
	// Any legal name fits in 255 octets of wire, so its canonical form
	// fits this stack buffer and the name costs one string allocation.
	var nb [maxNameWire]byte
	n := 0
	start := off
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
			name := string(nb[:n])
			if n > 0 && msg[start]&0xC0 == 0 && hops < 64 && names.n < len(names.at) {
				names.at[names.n] = nameAt{start, name}
				names.n++
			}
			return name, after, nil
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

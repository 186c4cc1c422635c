// Package dnswire implements the subset of the DNS wire format (RFC 1035,
// with EDNS0 per RFC 6891) that the Chronos pool-generation attack
// exercises: questions and A/NS/CNAME/PTR/TXT/SOA/OPT records, name
// compression, and truncation.
//
// Two properties of the format are load-bearing for the paper:
//
//   - Name compression makes A records in a response cost only 16 bytes
//     each, so a single non-fragmented 1472-byte EDNS0 response carries up
//     to 89 forged NTP-server addresses (MaxARecords reproduces the
//     computation);
//   - the record TTL is attacker-controlled, letting one poisoned response
//     pin a resolver cache across all 24 of Chronos' hourly pool queries.
package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type is a DNS RR type.
type Type uint16

// Record types used by the reproduction.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// Decode errors.
var (
	ErrShortMessage = errors.New("dnswire: message truncated")
	ErrBadRData     = errors.New("dnswire: bad rdata")
	ErrTooBig       = errors.New("dnswire: message exceeds 65535 bytes")
)

// ClassicMaxUDP is the pre-EDNS0 maximum DNS/UDP payload (RFC 1035).
const ClassicMaxUDP = 512

// EthernetMaxPayload is the largest UDP payload that fits a 1500-byte
// Ethernet MTU without IP fragmentation: 1500 − 20 (IP) − 8 (UDP).
const EthernetMaxPayload = 1472

// Question is a DNS question.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// RR is a resource record. Exactly one RDATA field is meaningful,
// according to Type: A for TypeA, Target for NS/CNAME/PTR, TXT for
// TypeTXT, SOA for TypeSOA, and Raw for anything else (round-tripped
// opaquely). For TypeOPT (EDNS0), Class carries the advertised UDP payload
// size per RFC 6891.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	A      [4]byte
	Target string
	TXT    []string
	SOA    *SOAData
	Raw    []byte
}

// ARecord builds an address record.
func ARecord(name string, ttl uint32, ip [4]byte) RR {
	return RR{Name: NormalizeName(name), Type: TypeA, Class: ClassIN, TTL: ttl, A: ip}
}

// NSRecord builds a delegation record.
func NSRecord(name string, ttl uint32, target string) RR {
	return RR{Name: NormalizeName(name), Type: TypeNS, Class: ClassIN, TTL: ttl, Target: NormalizeName(target)}
}

// CNAMERecord builds an alias record.
func CNAMERecord(name string, ttl uint32, target string) RR {
	return RR{Name: NormalizeName(name), Type: TypeCNAME, Class: ClassIN, TTL: ttl, Target: NormalizeName(target)}
}

// TXTRecord builds a text record.
func TXTRecord(name string, ttl uint32, chunks ...string) RR {
	return RR{Name: NormalizeName(name), Type: TypeTXT, Class: ClassIN, TTL: ttl, TXT: chunks}
}

// OPTRecord builds an EDNS0 pseudo-record advertising udpSize.
func OPTRecord(udpSize uint16) RR {
	return RR{Name: "", Type: TypeOPT, Class: Class(udpSize)}
}

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// NewQuery builds a recursion-desired query for (name, type).
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: NormalizeName(name), Type: qtype, Class: ClassIN}},
	}
}

// Reply builds a response skeleton mirroring the query's ID, question and
// RD flag.
func (m *Message) Reply() *Message {
	r := &Message{
		ID:               m.ID,
		Response:         true,
		RecursionDesired: m.RecursionDesired,
	}
	r.Questions = append(r.Questions, m.Questions...)
	return r
}

// EDNSSize returns the EDNS0 advertised UDP payload size if the message
// carries an OPT record.
func (m *Message) EDNSSize() (uint16, bool) {
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			return uint16(rr.Class), true
		}
	}
	return 0, false
}

// SetEDNS adds (or updates) the OPT record advertising udpSize.
func (m *Message) SetEDNS(udpSize uint16) {
	for i, rr := range m.Additional {
		if rr.Type == TypeOPT {
			m.Additional[i].Class = Class(udpSize)
			return
		}
	}
	m.Additional = append(m.Additional, OPTRecord(udpSize))
}

// MaxPayload returns the usable response size for a query: the EDNS0
// advertised size if present (floored at 512), else the classic 512.
func (m *Message) MaxPayload() int {
	if sz, ok := m.EDNSSize(); ok {
		if sz < ClassicMaxUDP {
			return ClassicMaxUDP
		}
		return int(sz)
	}
	return ClassicMaxUDP
}

// Encode serialises the message with name compression into a fresh
// buffer.
func (m *Message) Encode() ([]byte, error) { return m.AppendEncode(make([]byte, 0, 512)) }

// AppendEncode serialises the message with name compression onto buf and
// returns the extended slice; the appended bytes are exactly Encode's,
// because compression offsets count from the message's first byte, not
// from buf's. When buf has room for the message no allocation occurs, so
// a sender that reuses one buffer per host encodes for free. On error it
// returns nil.
func (m *Message) AppendEncode(buf []byte) ([]byte, error) {
	base := len(buf)
	c := compressor{base: base}
	buf = append(buf, make([]byte, 12)...)
	h := buf[base:]
	binary.BigEndian.PutUint16(h[0:2], m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xF)
	binary.BigEndian.PutUint16(h[2:4], flags)
	binary.BigEndian.PutUint16(h[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(h[6:8], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(h[8:10], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(h[10:12], uint16(len(m.Additional)))

	var err error
	for _, q := range m.Questions {
		buf, err = appendName(buf, q.Name, &c)
		if err != nil {
			return nil, fmt.Errorf("question %q: %w", q.Name, err)
		}
		buf = be16(buf, uint16(q.Type))
		buf = be16(buf, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			buf, err = appendRR(buf, rr, &c)
			if err != nil {
				return nil, fmt.Errorf("rr %q/%v: %w", rr.Name, rr.Type, err)
			}
		}
	}
	if len(buf)-base > 65535 {
		return nil, ErrTooBig
	}
	return buf, nil
}

func be16(buf []byte, v uint16) []byte { return append(buf, byte(v>>8), byte(v)) }
func be32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendRR(buf []byte, rr RR, c *compressor) ([]byte, error) {
	var err error
	buf, err = appendName(buf, rr.Name, c)
	if err != nil {
		return nil, err
	}
	buf = be16(buf, uint16(rr.Type))
	buf = be16(buf, uint16(rr.Class))
	buf = be32(buf, rr.TTL)
	lenAt := len(buf)
	buf = be16(buf, 0) // rdlength placeholder

	switch rr.Type {
	case TypeA:
		buf = append(buf, rr.A[:]...)
	case TypeNS, TypeCNAME, TypePTR:
		// RFC 1035 permits compressing these targets.
		buf, err = appendName(buf, rr.Target, c)
		if err != nil {
			return nil, err
		}
	case TypeTXT:
		for _, chunk := range rr.TXT {
			if len(chunk) > 255 {
				return nil, fmt.Errorf("%w: txt chunk too long", ErrBadRData)
			}
			buf = append(buf, byte(len(chunk)))
			buf = append(buf, chunk...)
		}
	case TypeSOA:
		if rr.SOA == nil {
			return nil, fmt.Errorf("%w: nil SOA", ErrBadRData)
		}
		buf, err = appendName(buf, rr.SOA.MName, c)
		if err != nil {
			return nil, err
		}
		buf, err = appendName(buf, rr.SOA.RName, c)
		if err != nil {
			return nil, err
		}
		buf = be32(buf, rr.SOA.Serial)
		buf = be32(buf, rr.SOA.Refresh)
		buf = be32(buf, rr.SOA.Retry)
		buf = be32(buf, rr.SOA.Expire)
		buf = be32(buf, rr.SOA.Minimum)
	case TypeOPT:
		// Empty RDATA; Class already carries the UDP size.
	default:
		buf = append(buf, rr.Raw...)
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 65535 {
		return nil, ErrTooBig
	}
	binary.BigEndian.PutUint16(buf[lenAt:lenAt+2], uint16(rdlen))
	return buf, nil
}

// Decode parses a DNS message. Trailing bytes beyond the counted records
// are ignored, as most real implementations do — the checksum-compensating
// spoofed fragments of the defragmentation attack depend on exactly this
// leniency.
//
// Decode copies RDATA and names, so the returned Message is independent of
// b and may outlive it. Records whose names are compression pointers to
// the same earlier name share one string.
func Decode(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, ErrShortMessage
	}
	var names nameTable
	m := &Message{ID: binary.BigEndian.Uint16(b[0:2])}
	flags := binary.BigEndian.Uint16(b[2:4])
	m.Response = flags&(1<<15) != 0
	m.Opcode = uint8(flags >> 11 & 0xF)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0xF)

	qd := int(binary.BigEndian.Uint16(b[4:6]))
	an := int(binary.BigEndian.Uint16(b[6:8]))
	ns := int(binary.BigEndian.Uint16(b[8:10]))
	ar := int(binary.BigEndian.Uint16(b[10:12]))

	off := 12
	var err error
	if qd > 0 {
		m.Questions = make([]Question, 0, sectionCap(qd))
	}
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = readName(b, off, &names)
		if err != nil {
			return nil, err
		}
		if off+4 > len(b) {
			return nil, ErrShortMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(b[off : off+2]))
		q.Class = Class(binary.BigEndian.Uint16(b[off+2 : off+4]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	if m.Answers, off, err = readSection(b, off, an, &names); err != nil {
		return nil, err
	}
	if m.Authority, off, err = readSection(b, off, ns, &names); err != nil {
		return nil, err
	}
	if m.Additional, _, err = readSection(b, off, ar, &names); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeBorrow is Decode. It keeps its name only because the
// chronosbench dnswire probe calls it; no other caller uses it.
func DecodeBorrow(b []byte) (*Message, error) { return Decode(b) }

// RecordLoc locates one resource record's mutable fields in a raw DNS
// message, by offsets from the message's first byte.
type RecordLoc struct {
	Name     string
	Type     Type
	TTLOff   int // offset of the 4-byte TTL
	RDataOff int // offset of the RDATA
	RDLen    int
}

// RecordOffsets locates every resource record of msg (answer, authority,
// additional, in wire order), reading names as Decode does but leaving
// RDATA unparsed, so it accepts every message Decode accepts. The
// defragmentation attack rewrites a glue record in place through it.
func RecordOffsets(msg []byte) ([]RecordLoc, error) {
	if len(msg) < 12 {
		return nil, ErrShortMessage
	}
	var names nameTable
	off, err := 12, error(nil)
	for qd := binary.BigEndian.Uint16(msg[4:6]); qd > 0; qd-- {
		if _, off, err = readName(msg, off, &names); err != nil {
			return nil, err
		}
		if off += 4; off > len(msg) {
			return nil, ErrShortMessage
		}
	}
	total := int(binary.BigEndian.Uint16(msg[6:8])) + int(binary.BigEndian.Uint16(msg[8:10])) + int(binary.BigEndian.Uint16(msg[10:12]))
	locs := make([]RecordLoc, 0, sectionCap(total))
	for i := 0; i < total; i++ {
		var loc RecordLoc
		if loc.Name, off, err = readName(msg, off, &names); err != nil {
			return nil, err
		}
		if off+10 > len(msg) {
			return nil, ErrShortMessage
		}
		loc.Type = Type(binary.BigEndian.Uint16(msg[off : off+2]))
		loc.TTLOff, loc.RDataOff = off+4, off+10
		loc.RDLen = int(binary.BigEndian.Uint16(msg[off+8 : off+10]))
		if off = loc.RDataOff + loc.RDLen; off > len(msg) {
			return nil, ErrShortMessage
		}
		locs = append(locs, loc)
	}
	return locs, nil
}

// sectionCap bounds the pre-sized capacity of a decoded section: the
// counts are attacker-controlled 16-bit values, so trust them only up to a
// modest prefix and let append grow beyond it.
func sectionCap(count int) int {
	if count > 64 {
		return 64
	}
	return count
}

// readSection parses count resource records starting at off.
func readSection(b []byte, off, count int, names *nameTable) ([]RR, int, error) {
	if count == 0 {
		return nil, off, nil
	}
	rrs := make([]RR, 0, sectionCap(count))
	for i := 0; i < count; i++ {
		var rr RR
		var err error
		rr, off, err = readRR(b, off, names)
		if err != nil {
			return nil, 0, err
		}
		rrs = append(rrs, rr)
	}
	return rrs, off, nil
}

func readRR(b []byte, off int, names *nameTable) (RR, int, error) {
	var rr RR
	var err error
	rr.Name, off, err = readName(b, off, names)
	if err != nil {
		return rr, 0, err
	}
	if off+10 > len(b) {
		return rr, 0, ErrShortMessage
	}
	rr.Type = Type(binary.BigEndian.Uint16(b[off : off+2]))
	rr.Class = Class(binary.BigEndian.Uint16(b[off+2 : off+4]))
	rr.TTL = binary.BigEndian.Uint32(b[off+4 : off+8])
	rdlen := int(binary.BigEndian.Uint16(b[off+8 : off+10]))
	off += 10
	if off+rdlen > len(b) {
		return rr, 0, ErrShortMessage
	}
	rdata := b[off : off+rdlen]
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, 0, fmt.Errorf("%w: A rdlength %d", ErrBadRData, rdlen)
		}
		copy(rr.A[:], rdata)
	case TypeNS, TypeCNAME, TypePTR:
		rr.Target, _, err = readName(b, off, names)
		if err != nil {
			return rr, 0, err
		}
	case TypeTXT:
		for p := 0; p < rdlen; {
			l := int(rdata[p])
			p++
			if p+l > rdlen {
				return rr, 0, fmt.Errorf("%w: txt chunk", ErrBadRData)
			}
			rr.TXT = append(rr.TXT, string(rdata[p:p+l]))
			p += l
		}
	case TypeSOA:
		soa := &SOAData{}
		var p int
		soa.MName, p, err = readName(b, off, names)
		if err != nil {
			return rr, 0, err
		}
		soa.RName, p, err = readName(b, p, names)
		if err != nil {
			return rr, 0, err
		}
		if p+20 > len(b) || p+20 > off+rdlen {
			return rr, 0, fmt.Errorf("%w: soa fixed fields", ErrBadRData)
		}
		soa.Serial = binary.BigEndian.Uint32(b[p : p+4])
		soa.Refresh = binary.BigEndian.Uint32(b[p+4 : p+8])
		soa.Retry = binary.BigEndian.Uint32(b[p+8 : p+12])
		soa.Expire = binary.BigEndian.Uint32(b[p+12 : p+16])
		soa.Minimum = binary.BigEndian.Uint32(b[p+16 : p+20])
		rr.SOA = soa
	case TypeOPT:
		// Class carries the UDP size; RDATA options are ignored.
	default:
		rr.Raw = append([]byte(nil), rdata...)
	}
	return rr, off + rdlen, nil
}

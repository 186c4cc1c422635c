// Package ntpwire implements the NTPv4 on-wire format (RFC 5905): the
// 48-byte packet header and the 64-bit era-0 timestamp representation.
//
// It is the NTP counterpart of dnswire: a pure encode/parse layer with
// no protocol logic, shared by ntpserver, ntpclient and chronos so that
// every exchange in the packet-fidelity simulations crosses the wire as
// real bytes. Timestamps convert between time.Time and the unsigned
// 32.32 fixed-point seconds-since-1900 format; sub-nanosecond rounding
// in that conversion is the only precision loss in the whole simulated
// NTP path. The parser is fuzzed (FuzzParsePacket) since it consumes
// attacker-controlled input in the interception scenarios.
package ntpwire

import (
	"encoding/binary"
	"errors"
	"time"
)

// PacketSize is the size of a bare NTPv4 header (no extensions, no MAC).
const PacketSize = 48

// Port is the well-known NTP UDP port.
const Port = 123

// Mode is the 3-bit association mode.
type Mode uint8

// Association modes (RFC 5905 §7.3).
const (
	ModeSymmetricActive  Mode = 1
	ModeSymmetricPassive Mode = 2
	ModeClient           Mode = 3
	ModeServer           Mode = 4
	ModeBroadcast        Mode = 5
)

// LeapIndicator is the 2-bit leap warning field.
type LeapIndicator uint8

// Leap indicator values.
const (
	LeapNone   LeapIndicator = 0
	LeapAddSec LeapIndicator = 1
	LeapDelSec LeapIndicator = 2
	LeapUnsync LeapIndicator = 3 // clock not synchronised
)

// Version is the NTP version this package speaks.
const Version = 4

// ErrShortPacket is returned when decoding fewer than 48 bytes.
var ErrShortPacket = errors.New("ntpwire: short packet")

// ntpEpoch is the NTP era-0 epoch: 1900-01-01T00:00:00Z.
var ntpEpoch = time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)

// Timestamp is a 64-bit NTP timestamp: 32 bits of seconds since the 1900
// epoch, 32 bits of binary fraction. The zero value means "not set"
// (RFC 5905 uses zero-valued timestamps the same way).
type Timestamp uint64

// TimestampFromTime converts a time.Time into an NTP timestamp. Its
// seconds count modulo 2^32, as on the wire, so an instant of era 1 (from
// 2036-02-07T06:28:16Z) gets the timestamp of the era-0 instant 2^32 s
// before it.
func TimestampFromTime(t time.Time) Timestamp {
	if t.IsZero() {
		return 0
	}
	d := t.Sub(ntpEpoch)
	secs := uint64(d / time.Second)
	frac := uint64(d%time.Second) << 32 / uint64(time.Second)
	return Timestamp(secs<<32 | frac)
}

// Time converts the timestamp back to time.Time (era 0). The zero
// timestamp maps to the zero time.
func (ts Timestamp) Time() time.Time {
	if ts == 0 {
		return time.Time{}
	}
	secs := uint64(ts) >> 32
	frac := uint64(ts) & 0xFFFFFFFF
	nanos := frac * uint64(time.Second) >> 32
	return ntpEpoch.Add(time.Duration(secs)*time.Second + time.Duration(nanos))
}

// TimeNear converts the timestamp to the instant it names in the era
// nearest ref, as RFC 5905 §6 reads a peer's timestamp against the local
// clock: Time's era-0 instant, moved on by whole eras while ref lies more
// than half an era (68 years) past it. Code that compares a peer's
// timestamp with a local instant reads it here. It is Time's instant
// whenever ref lies in era 0 within 68 years after it, and the zero
// timestamp maps to the zero time.
func (ts Timestamp) TimeNear(ref time.Time) time.Time {
	const era = time.Duration(1<<32) * time.Second
	t := ts.Time()
	for ts != 0 && ref.Sub(t) > era/2 {
		t = t.Add(era)
	}
	return t
}

// IsZero reports whether the timestamp is unset.
func (ts Timestamp) IsZero() bool { return ts == 0 }

// Short is the 32-bit NTP short format (16.16 fixed point seconds) used
// for root delay and dispersion.
type Short uint32

// ShortFromDuration converts a duration into NTP short format, saturating.
func ShortFromDuration(d time.Duration) Short {
	if d < 0 {
		d = 0
	}
	secs := d / time.Second
	if secs > 0xFFFF {
		return Short(0xFFFFFFFF)
	}
	frac := (d % time.Second) << 16 / time.Second
	return Short(uint32(secs)<<16 | uint32(frac))
}

// Duration converts the short format back into a duration.
func (s Short) Duration() time.Duration {
	secs := time.Duration(s>>16) * time.Second
	frac := time.Duration(s&0xFFFF) * time.Second >> 16
	return secs + frac
}

// Packet is a decoded NTPv4 header.
type Packet struct {
	Leap      LeapIndicator
	Version   uint8
	Mode      Mode
	Stratum   uint8
	Poll      int8
	Precision int8

	RootDelay      Short
	RootDispersion Short
	ReferenceID    uint32

	ReferenceTime Timestamp
	OriginTime    Timestamp // T1 as echoed by the server
	ReceiveTime   Timestamp // T2
	TransmitTime  Timestamp // T3
}

// Encode serialises the packet into a fresh 48-byte slice.
func (p *Packet) Encode() []byte {
	return p.AppendEncode(make([]byte, 0, PacketSize))
}

// AppendEncode serialises the packet onto dst and returns the extended
// slice. When dst has 48 bytes of spare capacity no allocation occurs —
// this is the hot path of the real-socket server, which reuses one
// response buffer per read loop.
func (p *Packet) AppendEncode(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, PacketSize)...)
	b := dst[n : n+PacketSize]
	b[0] = byte(p.Leap)<<6 | (p.Version&0x7)<<3 | byte(p.Mode)&0x7
	b[1] = p.Stratum
	b[2] = byte(p.Poll)
	b[3] = byte(p.Precision)
	binary.BigEndian.PutUint32(b[4:8], uint32(p.RootDelay))
	binary.BigEndian.PutUint32(b[8:12], uint32(p.RootDispersion))
	binary.BigEndian.PutUint32(b[12:16], p.ReferenceID)
	binary.BigEndian.PutUint64(b[16:24], uint64(p.ReferenceTime))
	binary.BigEndian.PutUint64(b[24:32], uint64(p.OriginTime))
	binary.BigEndian.PutUint64(b[32:40], uint64(p.ReceiveTime))
	binary.BigEndian.PutUint64(b[40:48], uint64(p.TransmitTime))
	return dst
}

// Decode parses a 48-byte NTPv4 header. Extra bytes (extensions, MACs)
// are ignored.
func Decode(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses a 48-byte NTPv4 header into p, which is overwritten
// entirely. It is the allocation-free counterpart of Decode for callers
// that reuse one Packet per read loop.
func DecodeInto(p *Packet, b []byte) error {
	if len(b) < PacketSize {
		return ErrShortPacket
	}
	*p = Packet{
		Leap:           LeapIndicator(b[0] >> 6),
		Version:        b[0] >> 3 & 0x7,
		Mode:           Mode(b[0] & 0x7),
		Stratum:        b[1],
		Poll:           int8(b[2]),
		Precision:      int8(b[3]),
		RootDelay:      Short(binary.BigEndian.Uint32(b[4:8])),
		RootDispersion: Short(binary.BigEndian.Uint32(b[8:12])),
		ReferenceID:    binary.BigEndian.Uint32(b[12:16]),
		ReferenceTime:  Timestamp(binary.BigEndian.Uint64(b[16:24])),
		OriginTime:     Timestamp(binary.BigEndian.Uint64(b[24:32])),
		ReceiveTime:    Timestamp(binary.BigEndian.Uint64(b[32:40])),
		TransmitTime:   Timestamp(binary.BigEndian.Uint64(b[40:48])),
	}
	return nil
}

// ValidServerResponse reports whether p is an acceptable reply to a
// client request transmitted at t1: a mode-4 packet from a synchronised
// server (stratum 0 is the Kiss-o'-Death range) that echoes the client's
// transmit timestamp in its origin field. The origin check is what
// defeats blind off-path spoofing of NTP itself; every client applies it
// through ntpauth.ClientAuth.CheckReply.
func ValidServerResponse(p *Packet, t1 Timestamp) bool {
	return p.Mode == ModeServer && p.Stratum != 0 && p.OriginTime == t1
}

// NewClientPacket builds a mode-3 request with TransmitTime = t1 (the
// client's clock reading at transmission).
func NewClientPacket(t1 time.Time) *Packet {
	p := &Packet{}
	FillClientPacket(p, t1)
	return p
}

// FillClientPacket writes a mode-3 request into p, which may live on the
// caller's stack — the allocation-free form of NewClientPacket for poll
// loops that send millions of requests.
func FillClientPacket(p *Packet, t1 time.Time) {
	*p = Packet{
		Leap:         LeapUnsync,
		Version:      Version,
		Mode:         ModeClient,
		Poll:         6,
		Precision:    -20,
		TransmitTime: TimestampFromTime(t1),
	}
}

// OffsetDelay computes the canonical NTP clock offset and round-trip delay
// from the four timestamps of one exchange (RFC 5905 §8):
//
//	offset = ((T2 − T1) + (T3 − T4)) / 2
//	delay  =  (T4 − T1) − (T3 − T2)
//
// where T1/T4 are client clock readings and T2/T3 server clock readings.
func OffsetDelay(t1, t2, t3, t4 time.Time) (offset, delay time.Duration) {
	offset = (t2.Sub(t1) + t3.Sub(t4)) / 2
	delay = t4.Sub(t1) - t3.Sub(t2)
	if delay < 0 {
		delay = 0
	}
	return offset, delay
}

package ntpwire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

var refTime = time.Date(2020, 6, 1, 12, 30, 45, 123456789, time.UTC)

func TestTimestampRoundTrip(t *testing.T) {
	ts := TimestampFromTime(refTime)
	got := ts.Time()
	if d := got.Sub(refTime); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("round trip error %v", d)
	}
}

func TestTimestampZero(t *testing.T) {
	if TimestampFromTime(time.Time{}) != 0 {
		t.Error("zero time should map to zero timestamp")
	}
	if !Timestamp(0).Time().IsZero() {
		t.Error("zero timestamp should map to zero time")
	}
}

func TestTimestampKnownValue(t *testing.T) {
	// 1900-01-01T00:00:01Z is exactly 1<<32 (one second, zero fraction).
	oneSec := time.Date(1900, 1, 1, 0, 0, 1, 0, time.UTC)
	if got := TimestampFromTime(oneSec); got != 1<<32 {
		t.Errorf("timestamp = %#x, want 1<<32", uint64(got))
	}
	// Half a second is 0x80000000 fraction.
	half := time.Date(1900, 1, 1, 0, 0, 0, 5e8, time.UTC)
	if got := TimestampFromTime(half); got != 0x80000000 {
		t.Errorf("timestamp = %#x, want 0x80000000", uint64(got))
	}
}

// shortDuration converts the short format back into a duration.
func shortDuration(s Short) time.Duration {
	secs := time.Duration(s>>16) * time.Second
	frac := time.Duration(s&0xFFFF) * time.Second >> 16
	return secs + frac
}

func TestShortRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 250 * time.Millisecond, 3 * time.Second} {
		got := shortDuration(ShortFromDuration(d))
		if diff := got - d; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("short round trip of %v gave %v", d, got)
		}
	}
	if ShortFromDuration(-time.Second) != 0 {
		t.Error("negative duration should clamp to 0")
	}
	if ShortFromDuration(100000*time.Second) != Short(0xFFFFFFFF) {
		t.Error("huge duration should saturate")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Leap: LeapNone, Version: 4, Mode: ModeServer,
		Stratum: 2, Poll: 6, Precision: -23,
		RootDelay: ShortFromDuration(30 * time.Millisecond), RootDispersion: ShortFromDuration(5 * time.Millisecond),
		ReferenceID:   0x47505300, // "GPS\0"
		ReferenceTime: TimestampFromTime(refTime.Add(-10 * time.Second)),
		OriginTime:    TimestampFromTime(refTime),
		ReceiveTime:   TimestampFromTime(refTime.Add(5 * time.Millisecond)),
		TransmitTime:  TimestampFromTime(refTime.Add(6 * time.Millisecond)),
	}
	b := p.Encode()
	if len(b) != PacketSize {
		t.Fatalf("encoded %d bytes", len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode(make([]byte, 47)); err == nil {
		t.Error("short packet accepted")
	}
	// Trailing bytes (extensions/MAC) ignored.
	if _, err := Decode(make([]byte, 68)); err != nil {
		t.Errorf("packet with extensions rejected: %v", err)
	}
}

func TestNewClientPacket(t *testing.T) {
	p := NewClientPacket(refTime)
	if p.Mode != ModeClient || p.Version != Version || p.Leap != LeapUnsync {
		t.Errorf("client packet fields: %+v", p)
	}
	if p.TransmitTime == 0 {
		t.Error("transmit time unset")
	}
}

func TestOffsetDelaySymmetric(t *testing.T) {
	// Client clock 100ms behind true; symmetric 10ms path each way.
	trueT := refTime
	clientErr := -100 * time.Millisecond
	t1 := trueT.Add(clientErr)
	t2 := trueT.Add(10 * time.Millisecond)
	t3 := trueT.Add(11 * time.Millisecond)
	t4 := trueT.Add(21 * time.Millisecond).Add(clientErr)
	offset, delay := OffsetDelay(t1, t2, t3, t4)
	if diff := offset - 100*time.Millisecond; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("offset = %v, want ~100ms", offset)
	}
	if diff := delay - 20*time.Millisecond; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("delay = %v, want ~20ms", delay)
	}
}

func TestOffsetDelayNegativeDelayClamped(t *testing.T) {
	// Nonsensical timestamps (T3 after T4 by more than the path) give a
	// negative delay; OffsetDelay clamps it.
	t1 := refTime
	t2 := refTime.Add(time.Second)
	t3 := refTime.Add(2 * time.Second)
	t4 := refTime.Add(time.Millisecond)
	_, delay := OffsetDelay(t1, t2, t3, t4)
	if delay != 0 {
		t.Errorf("delay = %v, want clamped 0", delay)
	}
}

// Property: packet encode/decode is the identity for all field values.
func TestPacketRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Packet{
			Leap:           LeapIndicator(rng.Intn(4)),
			Version:        uint8(rng.Intn(8)),
			Mode:           Mode(rng.Intn(8)),
			Stratum:        uint8(rng.Intn(256)),
			Poll:           int8(rng.Intn(256) - 128),
			Precision:      int8(rng.Intn(256) - 128),
			RootDelay:      Short(rng.Uint32()),
			RootDispersion: Short(rng.Uint32()),
			ReferenceID:    rng.Uint32(),
			ReferenceTime:  Timestamp(rng.Uint64()),
			OriginTime:     Timestamp(rng.Uint64()),
			ReceiveTime:    Timestamp(rng.Uint64()),
			TransmitTime:   Timestamp(rng.Uint64()),
		}
		got, err := Decode(p.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: timestamp conversion error is below one nanosecond-scale
// quantum for times in era 0.
func TestTimestampAccuracyProperty(t *testing.T) {
	base := time.Date(1950, 1, 1, 0, 0, 0, 0, time.UTC)
	f := func(secs uint32, nanos uint32) bool {
		tm := base.Add(time.Duration(secs%2_000_000_000)*time.Second + time.Duration(nanos%1_000_000_000))
		got := TimestampFromTime(tm).Time()
		d := got.Sub(tm)
		if d < 0 {
			d = -d
		}
		return d <= time.Nanosecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTimeNear reads a timestamp in the era nearest a local instant: the
// era-0 instant near it, an era-1 instant after the 2036 rollover, and
// the era-0 instant of a timestamp sent just before the rollover but read
// just after it.
func TestTimeNear(t *testing.T) {
	rollover := time.Date(2036, 2, 7, 6, 28, 16, 0, time.UTC)
	for _, tc := range []struct {
		at, ref time.Time
	}{
		{refTime, refTime.Add(time.Hour)},
		{rollover.Add(-time.Millisecond), rollover.Add(time.Millisecond)},
		{rollover.Add(time.Millisecond), rollover.Add(-time.Millisecond)},
		{time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2040, 1, 1, 0, 0, 1, 0, time.UTC)},
	} {
		got := TimestampFromTime(tc.at).TimeNear(tc.ref)
		if d := got.Sub(tc.at); d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("timestamp of %v read near %v: %v", tc.at, tc.ref, got)
		}
	}
	if ts := TimestampFromTime(refTime); !ts.TimeNear(refTime).Equal(ts.Time()) {
		t.Error("an era-0 timestamp read near its instant differs from Time")
	}
}

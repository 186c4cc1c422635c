package clock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

func TestZeroValueIsPerfect(t *testing.T) {
	var c Clock
	now := epoch.Add(3 * time.Hour)
	if got := c.Now(now); !got.Equal(now) {
		t.Errorf("zero clock Now = %v, want %v", got, now)
	}
	if c.Offset(now) != 0 {
		t.Errorf("zero clock offset = %v, want 0", c.Offset(now))
	}
}

func TestOffsetConstant(t *testing.T) {
	c := New(epoch, 250*time.Millisecond, 0)
	for _, d := range []time.Duration{0, time.Second, time.Hour, 100 * time.Hour} {
		if got := c.Offset(epoch.Add(d)); got != 250*time.Millisecond {
			t.Errorf("offset at +%v = %v, want 250ms", d, got)
		}
	}
}

func TestDriftAccumulates(t *testing.T) {
	// 100 ppm drift = 100 µs per second.
	c := New(epoch, 0, 100)
	got := c.Offset(epoch.Add(10 * time.Second))
	want := 1 * time.Millisecond
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("drift offset = %v, want ~%v", got, want)
	}
	// Negative drift runs the clock slow.
	c2 := New(epoch, 0, -50)
	if got := c2.Offset(epoch.Add(time.Hour)); got >= 0 {
		t.Errorf("negative drift should give negative offset, got %v", got)
	}
}

func TestStep(t *testing.T) {
	c := New(epoch, 10*time.Millisecond, 0)
	now := epoch.Add(time.Minute)
	c.Step(now, -10*time.Millisecond)
	if got := c.Offset(now); got != 0 {
		t.Errorf("offset after corrective step = %v, want 0", got)
	}
	if c.steps != 1 {
		t.Errorf("steps = %d, want 1", c.steps)
	}
}

func TestStepFoldsDrift(t *testing.T) {
	c := New(epoch, 0, 1000) // 1 ms/s
	now := epoch.Add(10 * time.Second)
	preStep := c.Offset(now) // ~10ms
	c.Step(now, 5*time.Millisecond)
	got := c.Offset(now)
	want := preStep + 5*time.Millisecond
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("offset after step = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	c := New(epoch, time.Second, 12.5)
	if s := c.String(); s == "" {
		t.Error("String should be non-empty")
	}
}

// Property: clock readings are monotone in true time when drift > -1e6 ppm
// (i.e. the local clock never runs backwards for any physical drift value).
func TestMonotonicityProperty(t *testing.T) {
	f := func(offMs int32, driftPPM int16, aSec, bSec uint16) bool {
		c := New(epoch, time.Duration(offMs)*time.Millisecond, float64(driftPPM))
		ta := epoch.Add(time.Duration(aSec) * time.Second)
		tb := epoch.Add(time.Duration(bSec) * time.Second)
		if tb.Before(ta) {
			ta, tb = tb, ta
		}
		return !c.Now(tb).Before(c.Now(ta))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Step(now, d) changes the reading at `now` by exactly d.
func TestStepExactProperty(t *testing.T) {
	f := func(offMs int32, driftPPM int16, atSec uint16, deltaMs int32) bool {
		c := New(epoch, time.Duration(offMs)*time.Millisecond, float64(driftPPM))
		now := epoch.Add(time.Duration(atSec) * time.Second)
		before := c.Now(now)
		delta := time.Duration(deltaMs) * time.Millisecond
		c.Step(now, delta)
		diff := c.Now(now).Sub(before) - delta
		return math.Abs(float64(diff)) <= float64(time.Microsecond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

package stats

import (
	"testing"
	"testing/quick"
)

func TestUtilizationBasics(t *testing.T) {
	var u Utilization
	u.Use()
	u.Deny()
	if got := u.Availability(); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Availability = %v, want 0.5", got)
	}
	u.Reset()
	if got := u.Availability(); got != 1 {
		t.Errorf("Availability after Reset = %v, want 1", got)
	}
}

func TestUtilizationAvailability(t *testing.T) {
	var u Utilization
	if got := u.Availability(); got != 1 {
		t.Errorf("Availability with no requests = %v, want 1", got)
	}
	u.Use()
	u.Use()
	u.Use()
	u.Deny()
	if got := u.Availability(); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("Availability = %v, want 0.75", got)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	var u Utilization
	if got := u.Availability(); got != 1 {
		t.Errorf("zero-value Availability = %v, want 1", got)
	}
	u.Deny()
	if got := u.Availability(); got != 0 {
		t.Errorf("Availability with every request denied = %v, want 0", got)
	}
}

func TestOccupancyBasics(t *testing.T) {
	o := NewOccupancy(4)
	o.Observe(4, 50)
	o.Observe(0, 50)
	if got := o.Average(); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Average = %v, want 0.5", got)
	}
	if got := o.FreeFraction(); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("FreeFraction = %v, want 0.5", got)
	}
}

func TestOccupancyBounds(t *testing.T) {
	o := NewOccupancy(2)
	for _, bad := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Observe(%d) did not panic", bad)
				}
			}()
			o.Observe(bad, 1)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("NewOccupancy(0) did not panic")
		}
	}()
	NewOccupancy(0)
}

func TestOccupancyEmpty(t *testing.T) {
	o := NewOccupancy(8)
	if o.Average() != 0 {
		t.Error("Average with no time should be 0")
	}
	if o.FreeFraction() != 1 {
		t.Error("FreeFraction with no time should be 1")
	}
}

func TestOccupancyPropertyAverageBounded(t *testing.T) {
	f := func(fills []uint8, dts []uint8) bool {
		o := NewOccupancy(255)
		n := len(fills)
		if len(dts) < n {
			n = len(dts)
		}
		for i := 0; i < n; i++ {
			o.Observe(int(fills[i]), uint64(dts[i]))
		}
		a := o.Average()
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package stats

import (
	"testing"
	"testing/quick"
)

func TestBitBiasWidth(t *testing.T) {
	for _, bad := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBitBias(%d) did not panic", bad)
				}
			}()
			NewBitBias(bad)
		}()
	}
	if got := len(NewBitBias(64).Biases()); got != 64 {
		t.Errorf("64-bit tracker reports %d biases", got)
	}
}

func TestBitBiasObserve(t *testing.T) {
	b := NewBitBias(4)
	b.Observe(0b0101, 10) // bits 1 and 3 are zero
	b.Observe(0b1111, 10) // no zero bits
	if b.BusyTime() != 20 {
		t.Fatalf("BusyTime = %d, want 20", b.BusyTime())
	}
	wants := []float64{0, 0.5, 0, 0.5} // bit0 never zero, bit1 zero half the time...
	for i, want := range wants {
		if got := b.ZeroBias(i); !almostEqual(got, want, 1e-12) {
			t.Errorf("ZeroBias(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestBitBiasFreeTime(t *testing.T) {
	b := NewBitBias(2)
	b.Observe(0b11, 50)     // busy, all ones
	b.ObserveFree(0b00, 50) // free, holding zeros
	// Over total time each bit is zero half the time.
	for i := 0; i < 2; i++ {
		if got := b.ZeroBias(i); !almostEqual(got, 0.5, 1e-12) {
			t.Errorf("ZeroBias(%d) = %v, want 0.5", i, got)
		}
		if got := b.BusyZeroBias(i); got != 0 {
			t.Errorf("BusyZeroBias(%d) = %v, want 0", i, got)
		}
	}
	if b.BusyTime() != 50 || b.TotalTime() != 100 {
		t.Error("free/total time mismatch")
	}
}

func TestBitBiasNeutralWhenEmpty(t *testing.T) {
	b := NewBitBias(3)
	if got := b.ZeroBias(0); got != 0.5 {
		t.Errorf("ZeroBias on empty tracker = %v, want 0.5", got)
	}
	if got := b.BusyZeroBias(1); got != 0.5 {
		t.Errorf("BusyZeroBias on empty tracker = %v, want 0.5", got)
	}
	if got := b.WorstCellBias(); got != 0.5 {
		t.Errorf("WorstCellBias on empty tracker = %v, want 0.5", got)
	}
}

func TestBitBiasWorstImbalance(t *testing.T) {
	b := NewBitBias(2)
	b.Observe(0b00, 50) // bit0 zero half the time -> balanced
	b.Observe(0b01, 40) // bit1 zero 90 cycles total
	b.Observe(0b11, 10)
	if got := b.ZeroBias(1); !almostEqual(got, 0.9, 1e-12) {
		t.Errorf("ZeroBias(1) = %v, want 0.9", got)
	}
	if got := b.WorstCellBias(); !almostEqual(got, 0.9, 1e-12) {
		t.Errorf("WorstCellBias = %v, want 0.9", got)
	}
}

func TestBitBiasWorstCellBiasSymmetric(t *testing.T) {
	// A bit that is almost always "1" stresses the complementary PMOS of
	// the cell just as badly as an almost-always-"0" bit.
	b := NewBitBias(1)
	b.Observe(0b1, 95)
	b.Observe(0b0, 5)
	if got := b.WorstCellBias(); !almostEqual(got, 0.95, 1e-12) {
		t.Errorf("WorstCellBias = %v, want 0.95", got)
	}
}

func TestBitBiasReset(t *testing.T) {
	b := NewBitBias(2)
	b.Observe(0b00, 10)
	b.ObserveFree(0b01, 4)
	b.Reset()
	if b.TotalTime() != 0 || b.ZeroBias(0) != 0.5 {
		t.Error("Reset did not clear tracker")
	}
}

func TestBitBiasZeroDtIgnored(t *testing.T) {
	b := NewBitBias(1)
	b.Observe(0, 0)
	b.ObserveFree(0, 0)
	if b.TotalTime() != 0 {
		t.Error("zero-dt observations must not accumulate")
	}
}

func TestBitBiasPropertyBounded(t *testing.T) {
	// Property: biases always lie in [0,1] and worst cell bias in [0.5,1].
	f := func(vals []uint16, dts []uint8) bool {
		b := NewBitBias(16)
		n := len(vals)
		if len(dts) < n {
			n = len(dts)
		}
		for i := 0; i < n; i++ {
			b.Observe(uint64(vals[i]), uint64(dts[i]))
		}
		for i := 0; i < 16; i++ {
			z := b.ZeroBias(i)
			if z < 0 || z > 1 {
				return false
			}
		}
		w := b.WorstCellBias()
		return w >= 0.5 && w <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitBiasPropertyComplement(t *testing.T) {
	// Property: observing v and ^v for equal time balances every bit.
	f := func(vals []uint16) bool {
		b := NewBitBias(16)
		for _, v := range vals {
			b.Observe(uint64(v), 7)
			b.Observe(uint64(^v), 7)
		}
		for i := 0; i < 16; i++ {
			if len(vals) > 0 && !almostEqual(b.ZeroBias(i), 0.5, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

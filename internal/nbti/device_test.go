package nbti

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeviceStressMonotone(t *testing.T) {
	d := NewDevice(DefaultParams())
	prev := d.NIT()
	for i := 0; i < 20; i++ {
		d.Stress(0.1)
		if d.NIT() < prev {
			t.Fatalf("NIT decreased during stress at step %d", i)
		}
		prev = d.NIT()
	}
	if d.NIT() > 1 {
		t.Fatalf("NIT = %v exceeded N0", d.NIT())
	}
}

func TestDeviceRelaxHeals(t *testing.T) {
	d := NewDevice(DefaultParams())
	d.Stress(1)
	high := d.NIT()
	d.Relax(0.5)
	if d.NIT() >= high {
		t.Fatal("relaxation must reduce NIT")
	}
	if d.NIT() <= 0 {
		t.Fatal("finite relaxation must not fully heal (needs infinite time)")
	}
}

func TestDeviceSaturates(t *testing.T) {
	d := NewDevice(DefaultParams())
	d.Stress(1000)
	if !almostEqual(d.NIT(), 1, 1e-9) {
		t.Fatalf("long DC stress should saturate at N0, got %v", d.NIT())
	}
	if got := d.VTHShift(); !almostEqual(got, DefaultParams().MaxVTHShift, 1e-9) {
		t.Fatalf("saturated VTH shift = %v, want max", got)
	}
}

func TestDeviceDegradationSlowsDown(t *testing.T) {
	// Figure 1: "degradation speed decreases as the number of Si-H bonds
	// decreases". Equal stress intervals must add less and less NIT.
	d := NewDevice(DefaultParams())
	var deltas []float64
	prev := 0.0
	for i := 0; i < 5; i++ {
		d.Stress(0.3)
		deltas = append(deltas, d.NIT()-prev)
		prev = d.NIT()
	}
	for i := 1; i < len(deltas); i++ {
		if deltas[i] >= deltas[i-1] {
			t.Fatalf("stress increment %d (%v) not smaller than previous (%v)",
				i, deltas[i], deltas[i-1])
		}
	}
}

func TestDeviceRecoveryFasterWhenMoreTraps(t *testing.T) {
	// "the higher the number of NIT, the faster the recovery" (§2.2).
	p := DefaultParams()
	heavy := NewDevice(p)
	heavy.Stress(2)
	light := NewDevice(p)
	light.Stress(0.1)
	hBefore, lBefore := heavy.NIT(), light.NIT()
	heavy.Relax(0.05)
	light.Relax(0.05)
	if (hBefore - heavy.NIT()) <= (lBefore - light.NIT()) {
		t.Fatal("device with more traps must recover more in absolute terms")
	}
}

func TestDeviceApplyAndAccounting(t *testing.T) {
	d := NewDevice(DefaultParams())
	apply(d, false, 1) // stress
	afterStress := d.NIT()
	apply(d, true, 1) // relax
	if d.Time() != 2 {
		t.Fatalf("Time = %v, want 2", d.Time())
	}
	if afterStress <= 0 || d.NIT() >= afterStress {
		t.Fatalf("NIT %v after stress, %v after relax: want a rise, then a fall", afterStress, d.NIT())
	}
}

// apply ages d for dt time units with the gate observing the given logic
// level: false ("0") stresses, true ("1") relaxes.
func apply(d *Device, level bool, dt float64) {
	if level {
		d.Relax(dt)
	} else {
		d.Stress(dt)
	}
}

func TestDevicePanics(t *testing.T) {
	d := NewDevice(DefaultParams())
	for _, f := range []func(){
		func() { d.Stress(-1) },
		func() { d.Relax(-1) },
		func() { NewDevice(Params{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSquareWaveShape(t *testing.T) {
	p := DefaultParams()
	trace := SquareWave(p, 0.2, 0.5, 50)
	if len(trace) != 101 {
		t.Fatalf("trace length = %d, want 101", len(trace))
	}
	if trace[0].NIT != 0 {
		t.Fatal("trace must start unstressed")
	}
	// Samples alternate up (after stress) and down (after relax).
	for i := 1; i+1 < len(trace); i += 2 {
		if trace[i].NIT <= trace[i-1].NIT {
			t.Fatalf("sample %d: stress phase did not raise NIT", i)
		}
		if trace[i+1].NIT >= trace[i].NIT {
			t.Fatalf("sample %d: relax phase did not lower NIT", i+1)
		}
	}
}

func TestSquareWaveConvergesToEquilibrium(t *testing.T) {
	// The saw-tooth envelope must converge to the duty-cycle equilibrium
	// for short periods (fast switching averages the two phases).
	p := DefaultParams()
	for _, duty := range []float64{0.3, 0.5, 0.8} {
		trace := SquareWave(p, 0.001, duty, 20000)
		final := trace[len(trace)-1].NIT
		want := p.EquilibriumTraps(duty)
		if !almostEqual(final, want, 0.01) {
			t.Errorf("duty %v: converged to %v, want %v", duty, final, want)
		}
	}
}

func TestSquareWaveEquilibriumOrdering(t *testing.T) {
	// Lower stress duty must settle at lower degradation.
	p := DefaultParams()
	low := SquareWave(p, 0.01, 0.3, 3000)
	high := SquareWave(p, 0.01, 0.9, 3000)
	if low[len(low)-1].NIT >= high[len(high)-1].NIT {
		t.Fatal("lower duty must yield lower steady-state NIT")
	}
}

func TestPeakEnvelope(t *testing.T) {
	p := DefaultParams()
	trace := SquareWave(p, 0.2, 0.5, 10)
	// The end-of-stress samples (odd indices) are the local maxima of
	// the saw-tooth: its upper envelope.
	var peaks []TracePoint
	for i := 1; i < len(trace); i += 2 {
		if trace[i].NIT < trace[i-1].NIT || i+1 < len(trace) && trace[i].NIT < trace[i+1].NIT {
			t.Fatalf("sample %d is not a local maximum", i)
		}
		peaks = append(peaks, trace[i])
	}
	if len(peaks) != 10 {
		t.Fatalf("peaks = %d, want 10", len(peaks))
	}
	for i := 1; i < len(peaks); i++ {
		if peaks[i].NIT < peaks[i-1].NIT {
			t.Fatal("peak envelope must be non-decreasing under a steady square wave")
		}
	}
}

func TestSquareWavePanics(t *testing.T) {
	for _, f := range []func(){
		func() { SquareWave(DefaultParams(), 0, 0.5, 10) },
		func() { SquareWave(DefaultParams(), 1, -0.1, 10) },
		func() { SquareWave(DefaultParams(), 1, 0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDevicePropertyNITBounded(t *testing.T) {
	// Property: under any schedule, NIT stays within [0, N0].
	p := DefaultParams()
	f := func(steps []bool, dts []uint8) bool {
		d := NewDevice(p)
		n := len(steps)
		if len(dts) < n {
			n = len(dts)
		}
		for i := 0; i < n; i++ {
			apply(d, steps[i], float64(dts[i])/64)
			if d.NIT() < 0 || d.NIT() > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDevicePropertyStressIncreasesVTH(t *testing.T) {
	p := DefaultParams()
	f := func(dtRaw uint8) bool {
		dt := float64(dtRaw)/255 + 0.001
		d := NewDevice(p)
		before := d.VTHShift()
		d.Stress(dt)
		return d.VTHShift() > before && !math.IsNaN(d.VTHShift())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

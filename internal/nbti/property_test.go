package nbti

import (
	"math"
	"testing"
)

// TestExactIntegrationSubdivision is the "exact integration" property
// the Device documents: aging over one long interval must be bit-close
// (within 1e-12) to the same interval subdivided into N steps, for both
// stress and relaxation and for mixed schedules. The closed forms
// compose exactly — exp(-K(t1+t2)) = exp(-Kt1)·exp(-Kt2) — so the only
// divergence is float rounding.
func TestExactIntegrationSubdivision(t *testing.T) {
	params := DefaultParams()
	const tol = 1e-12
	for _, tc := range []struct {
		name     string
		total    float64
		steps    int
		schedule func(d *Device, dt float64)
	}{
		{"stress", 3.7, 1000, func(d *Device, dt float64) { d.Stress(dt) }},
		{"stress-long", 250, 64, func(d *Device, dt float64) { d.Stress(dt) }},
		{"relax-after-stress", 5.0, 777, func(d *Device, dt float64) { d.Relax(dt) }},
		{"apply-stress", 0.9, 9, func(d *Device, dt float64) { apply(d, false, dt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one := NewDevice(params)
			many := NewDevice(params)
			// Give the relax cases something to anneal.
			one.Stress(2)
			many.Stress(2)

			tc.schedule(one, tc.total)
			for i := 0; i < tc.steps; i++ {
				tc.schedule(many, tc.total/float64(tc.steps))
			}
			if diff := math.Abs(one.NIT() - many.NIT()); diff > tol {
				t.Errorf("NIT diverges by %g after %d-way subdivision (one=%.15f many=%.15f)",
					diff, tc.steps, one.NIT(), many.NIT())
			}
			if diff := math.Abs(one.Time() - many.Time()); diff > 1e-9 {
				t.Errorf("time accounting diverges by %g", diff)
			}
		})
	}

	// A mixed stress/relax schedule subdivides the same way: each phase
	// is split independently.
	phases := []struct {
		level bool
		dt    float64
	}{{false, 1.3}, {true, 0.4}, {false, 2.2}, {true, 3.1}, {false, 0.05}}
	one := NewDevice(params)
	many := NewDevice(params)
	for _, ph := range phases {
		apply(one, ph.level, ph.dt)
		const n = 311
		for i := 0; i < n; i++ {
			apply(many, ph.level, ph.dt/n)
		}
	}
	if diff := math.Abs(one.NIT() - many.NIT()); diff > tol {
		t.Errorf("mixed schedule diverges by %g under subdivision", diff)
	}
}

// TestDutyCycleEquilibriumMatchesClosedForm runs a long alternating
// stress/relax schedule at several duty cycles and checks the trap
// density converges to Params.EquilibriumTraps: the closed form is the
// infinitesimal-period limit, so with a period much shorter than the
// 1/KRelax response time, the steady-state saw-tooth must bracket it
// tightly.
func TestDutyCycleEquilibriumMatchesClosedForm(t *testing.T) {
	params := DefaultParams()
	const period = 1e-4
	for _, duty := range []float64{0.1, 0.3, 0.5, 0.8, 0.95} {
		want := params.EquilibriumTraps(duty)
		dev := NewDevice(params)
		// Run long past the slowest time constant (1/KStress = 1).
		for total := 0.0; total < 40; total += period {
			dev.Stress(period * duty)
			dev.Relax(period * (1 - duty))
		}
		trough := dev.NIT()
		dev.Stress(period * duty)
		peak := dev.NIT()
		// The steady-state ripple around the equilibrium is O(K·period).
		tol := 20 * period * want
		if !(trough <= want+tol && peak >= want-tol) {
			t.Errorf("duty %.2f: steady state [%.9f, %.9f] does not bracket closed form %.9f",
				duty, trough, peak, want)
		}
		if mid := (trough + peak) / 2; math.Abs(mid-want) > 1e-3*want+1e-9 {
			t.Errorf("duty %.2f: saw-tooth midpoint %.9f vs closed form %.9f", duty, mid, want)
		}
	}
}

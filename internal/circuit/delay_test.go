package circuit

import (
	"math"
	"testing"
)

// TestCriticalPathChain checks depth and narrow counting on a hand-built
// inverter chain with a short side branch.
func TestCriticalPathChain(t *testing.T) {
	n := New()
	a := n.Input("a")
	b := n.Input("b")
	x := n.INV(a, "x1")
	x = n.INV(x, "x2")
	x = n.INV(x, "x3")
	wide := n.INV(x, "x4w")
	setWide(n, wide)
	side := n.AND2(a, b, "side") // depth 1, off the critical path
	n.OR2(wide, side, "out")

	path := n.CriticalPath()
	if path.Depth != 5 {
		t.Fatalf("depth = %d, want 5 (inv chain + wide inv + or)", path.Depth)
	}
	// x1..x3 and the OR are narrow; x4 is wide.
	if path.Narrow != 4 {
		t.Fatalf("narrow = %d, want 4", path.Narrow)
	}
	if f := path.NarrowFraction(); math.Abs(f-0.8) > 1e-12 {
		t.Fatalf("narrow fraction = %g, want 0.8", f)
	}
}

// TestCriticalPathInputsOnly checks the degenerate netlists: inputs and
// constants alone have no path.
func TestCriticalPathInputsOnly(t *testing.T) {
	n := New()
	n.Input("a")
	n.Const(true, "one")
	if path := n.CriticalPath(); path.Depth != 0 || path.Narrow != 0 {
		t.Fatalf("gateless netlist has path %+v", path)
	}
	if f := (PathStats{}).NarrowFraction(); f != 0 {
		t.Fatalf("empty path narrow fraction = %g", f)
	}
}

// TestDelayModelZeroSusceptible checks the all-wide path degenerates to
// a zero response instead of dividing by zero.
func TestDelayModelZeroSusceptible(t *testing.T) {
	m := NewDelayModel(PathStats{Depth: 4, Narrow: 0}, 0.1, 0.2)
	if !m.Valid() {
		t.Fatal("zero-response model not valid")
	}
	if g := m.Guardband(0.1); g != 0 {
		t.Fatalf("all-wide path guardband = %g", g)
	}
}

// TestDelayModelMonotone sweeps the response: strictly increasing up to
// the clamp, anchored at the calibration point.
func TestDelayModelMonotone(t *testing.T) {
	m := NewDelayModel(PathStats{Depth: 10, Narrow: 7}, 0.1, 0.2)
	if g := m.Guardband(0.1); math.Abs(g-0.2) > 1e-12 {
		t.Fatalf("anchor guardband = %g, want 0.2", g)
	}
	prev := -1.0
	for shift := 0.0; shift <= 0.2; shift += 0.005 {
		g := m.Guardband(shift)
		if g <= prev && shift <= 0.2 {
			t.Fatalf("guardband not increasing at shift %g: %g <= %g", shift, g, prev)
		}
		prev = g
	}
	if (DelayModel{}).Valid() {
		t.Fatal("zero-value model must be invalid")
	}
}

package circuit

import (
	"math"
	"testing"
	"testing/quick"

	"penelope/internal/nbti"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// totalTime returns the stress time applied so far, identical for every
// transistor.
func totalTime(s *StressSim) uint64 {
	if len(s.transistors) == 0 {
		return 0
	}
	return s.transistors[0].totalTime
}

func TestInverterStress(t *testing.T) {
	n := New()
	a := n.Input("a")
	n.INV(a, "inv")
	sim := NewStressSim(n)
	if len(sim.transistors) != 1 {
		t.Fatalf("inverter has %d PMOS, want 1", len(sim.transistors))
	}
	sim.Apply([]bool{false}, 3) // gate sees "0": stress
	sim.Apply([]bool{true}, 1)  // gate sees "1": relax
	tr := sim.transistors[0]
	if got := tr.ZeroProb(); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("ZeroProb = %v, want 0.75", got)
	}
	if tr.totalTime != 4 {
		t.Errorf("totalTime = %d, want 4", tr.totalTime)
	}
}

func TestTransistorCounts(t *testing.T) {
	// Each gate kind must elaborate to its template size.
	wants := map[Kind]int{
		KindINV: 1, KindBUF: 2, KindNAND2: 2, KindNOR2: 2,
		KindAND2: 3, KindOR2: 3, KindXOR2: 4, KindXNOR2: 4,
		KindMUX2: 4, KindXOR3: 6,
	}
	for kind, want := range wants {
		n := New()
		ins := []Signal{n.Input("a"), n.Input("b"), n.Input("c")}
		switch kind.arity() {
		case 1:
			n.addGate(kind, "g", ins[0])
		case 2:
			n.addGate(kind, "g", ins[0], ins[1])
		case 3:
			n.addGate(kind, "g", ins[0], ins[1], ins[2])
		}
		if got := len(NewStressSim(n).transistors); got != want {
			t.Errorf("%v: %d PMOS, want %d", kind, got, want)
		}
	}
}

func TestInputsHaveNoTransistors(t *testing.T) {
	n := New()
	n.Input("a")
	n.Const(true, "one")
	if got := len(NewStressSim(n).transistors); got != 0 {
		t.Errorf("inputs/constants have %d PMOS, want 0", got)
	}
}

func TestAND2InternalNodeStress(t *testing.T) {
	// AND2 = NAND2 + INV; the inverter PMOS (template tap 2) sees the
	// complement of the AND output, so it is stressed when the AND output
	// is 1.
	n := New()
	a := n.Input("a")
	b := n.Input("b")
	n.AND2(a, b, "and")
	sim := NewStressSim(n)
	sim.Apply([]bool{true, true}, 1) // out=1 -> internal node 0 -> stressed
	if len(sim.transistors) != 3 {
		t.Fatal("AND2 lacks internal-node transistor")
	}
	internal := &sim.transistors[2]
	if got := internal.ZeroProb(); got != 1 {
		t.Errorf("internal PMOS zero prob = %v, want 1", got)
	}
	sim.Apply([]bool{false, true}, 1) // out=0 -> internal node 1 -> relaxed
	if got := internal.ZeroProb(); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("internal PMOS zero prob = %v, want 0.5", got)
	}
}

func TestXORComplementTaps(t *testing.T) {
	// XOR2 has taps on both inputs and both complements: alternating
	// between (0,0) and (1,1) balances every tap at 50%.
	n := New()
	a := n.Input("a")
	b := n.Input("b")
	n.XOR2(a, b, "x")
	sim := NewStressSim(n)
	sim.Apply([]bool{false, false}, 1)
	sim.Apply([]bool{true, true}, 1)
	for i, tr := range sim.transistors {
		if got := tr.ZeroProb(); !almostEqual(got, 0.5, 1e-12) {
			t.Errorf("tap %d zero prob = %v, want 0.5", i, got)
		}
	}
}

func TestStressSimReset(t *testing.T) {
	n := New()
	a := n.Input("a")
	n.INV(a, "inv")
	sim := NewStressSim(n)
	sim.Apply([]bool{false}, 5)
	sim.Reset()
	if totalTime(sim) != 0 || sim.transistors[0].ZeroProb() != 0 {
		t.Error("Reset did not clear stress")
	}
	sim.Apply([]bool{false}, 0) // zero dt is a no-op
	if totalTime(sim) != 0 {
		t.Error("zero-dt Apply must not accumulate")
	}
}

func TestAnalyzeReport(t *testing.T) {
	p := nbti.DefaultParams()
	n := New()
	a := n.Input("a")
	x := n.INV(a, "narrow") // stressed 100%
	setWide(n, n.INV(x, "wide"))
	sim := NewStressSim(n)
	sim.Apply([]bool{false}, 10) // a=0: narrow stressed; x=1: wide relaxed
	rep := sim.Analyze(p)
	if rep.Transistors != 2 || rep.Narrow != 1 || rep.Wide != 1 {
		t.Fatalf("counts wrong: %+v", rep)
	}
	if rep.WorstNarrowZeroProb != 1 {
		t.Errorf("WorstNarrowZeroProb = %v, want 1", rep.WorstNarrowZeroProb)
	}
	if !almostEqual(rep.NarrowFullyStressed, 0.5, 1e-12) {
		t.Errorf("NarrowFullyStressed = %v, want 0.5", rep.NarrowFullyStressed)
	}
	if !almostEqual(rep.Guardband, p.MaxGuardband, 1e-12) {
		t.Errorf("Guardband = %v, want max", rep.Guardband)
	}
	if rep.String() == "" {
		t.Error("report should render")
	}
}

func TestAnalyzeWideDiscount(t *testing.T) {
	// A wide transistor at 100% zero-signal probability must report a
	// lower effective bias than a narrow one at 50% (§4.3).
	p := nbti.DefaultParams()
	n := New()
	a := n.Input("a")
	setWide(n, n.INV(a, "wide"))
	sim := NewStressSim(n)
	sim.Apply([]bool{false}, 10)
	rep := sim.Analyze(p)
	if rep.WorstEffectiveBias >= 0.75 {
		t.Errorf("wide effective bias = %v, want < 0.75", rep.WorstEffectiveBias)
	}
	if rep.NarrowFullyStressed != 0 {
		t.Error("no narrow transistor should be counted")
	}
}

func TestStressPropertyZeroProbBounded(t *testing.T) {
	n, _, _, _ := buildFullAdder()
	sim := NewStressSim(n)
	f := func(vs []uint8) bool {
		for _, v := range vs {
			sim.Apply([]bool{v&1 != 0, v&2 != 0, v&4 != 0}, uint64(v%5)+1)
		}
		for _, tr := range sim.transistors {
			zp := tr.ZeroProb()
			if zp < 0 || zp > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

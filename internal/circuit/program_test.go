package circuit

import (
	"math/rand"
	"testing"

	"penelope/internal/nbti"
)

// randomNetlist builds a seeded random netlist: a few inputs and
// constants, then gates of every kind over randomly chosen existing
// signals. Construction order is topological by design, so any signal
// choice is legal.
func randomNetlist(rng *rand.Rand, numInputs, numGates int) *Netlist {
	n := New()
	var sigs []Signal
	for i := 0; i < numInputs; i++ {
		sigs = append(sigs, n.Input("in"))
	}
	sigs = append(sigs, n.Const(false, "zero"), n.Const(true, "one"))
	pick := func() Signal { return sigs[rng.Intn(len(sigs))] }
	kinds := []Kind{KindINV, KindBUF, KindNAND2, KindNOR2, KindAND2,
		KindOR2, KindXOR2, KindXNOR2, KindMUX2, KindXOR3}
	for i := 0; i < numGates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		var s Signal
		switch k.arity() {
		case 1:
			s = n.addGate(k, "g", pick())
		case 2:
			s = n.addGate(k, "g", pick(), pick())
		case 3:
			s = n.addGate(k, "g", pick(), pick(), pick())
		}
		if rng.Intn(4) == 0 {
			setWide(n, s)
		}
		sigs = append(sigs, s)
	}
	return n
}

// randomLaneInputs draws per-lane scalar input vectors plus their packed
// word form.
func randomLaneInputs(rng *rand.Rand, numInputs, lanes int) ([][]bool, []uint64) {
	vectors := make([][]bool, lanes)
	for l := range vectors {
		vec := make([]bool, numInputs)
		for i := range vec {
			vec[i] = rng.Intn(2) == 1
		}
		vectors[l] = vec
	}
	return vectors, packLanes(vectors, numInputs)
}

// packLanes packs per-lane scalar input vectors into the word layout
// EvalVec consumes: word i holds input i of every lane, bit l coming
// from vectors[l][i].
func packLanes(vectors [][]bool, numInputs int) []uint64 {
	words := make([]uint64, numInputs)
	for l, vec := range vectors {
		for i, b := range vec {
			if b {
				words[i] |= 1 << uint(l)
			}
		}
	}
	return words
}

// TestEvalVecMatchesScalar drives randomized netlists through the
// compiled bit-parallel evaluator and checks every lane of every signal
// against the interpreted scalar oracle.
func TestEvalVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := randomNetlist(rng, 1+rng.Intn(8), 1+rng.Intn(120))
		prog := n.Compile()
		lanes := 1 + rng.Intn(64)
		vectors, words := randomLaneInputs(rng, len(n.Inputs()), lanes)
		vals := prog.EvalVec(words)
		if len(vals) != n.NumSignals() {
			t.Fatalf("trial %d: EvalVec returned %d words, want %d", trial, len(vals), n.NumSignals())
		}
		for l := 0; l < lanes; l++ {
			ref := n.Eval(vectors[l])
			for s := range ref {
				got := vals[s]&(1<<uint(l)) != 0
				if got != ref[s] {
					t.Fatalf("trial %d lane %d signal %d: vec=%v scalar=%v", trial, l, s, got, ref[s])
				}
			}
		}
	}
}

// TestEvalVecConstants checks constant gates drive every lane.
func TestEvalVecConstants(t *testing.T) {
	n := New()
	zero := n.Const(false, "zero")
	one := n.Const(true, "one")
	x := n.XOR2(zero, one, "x")
	vals := n.Compile().EvalVec(nil)
	if vals[zero] != 0 {
		t.Errorf("const 0 word = %#x, want 0", vals[zero])
	}
	if vals[one] != ^uint64(0) {
		t.Errorf("const 1 word = %#x, want all ones", vals[one])
	}
	if vals[x] != ^uint64(0) {
		t.Errorf("0 xor 1 word = %#x, want all ones", vals[x])
	}
}

// TestEvalVecMUX2XOR3Exhaustive packs the full 3-input truth table into
// 8 lanes and checks the composite cells lane by lane.
func TestEvalVecMUX2XOR3Exhaustive(t *testing.T) {
	n := New()
	a := n.Input("a")
	b := n.Input("b")
	c := n.Input("c")
	mux := n.MUX2(a, b, c, "mux")
	xor3 := n.XOR3(a, b, c, "xor3")
	vectors := make([][]bool, 8)
	for v := range vectors {
		vectors[v] = bitsOf(uint64(v), 3)
	}
	vals := n.Compile().EvalVec(packLanes(vectors, 3))
	for v := 0; v < 8; v++ {
		in := vectors[v]
		wantMux := in[1]
		if in[0] {
			wantMux = in[2]
		}
		if got := vals[mux]&(1<<uint(v)) != 0; got != wantMux {
			t.Errorf("mux2 lane %d = %v, want %v", v, got, wantMux)
		}
		wantXor3 := in[0] != in[1] != in[2]
		if got := vals[xor3]&(1<<uint(v)) != 0; got != wantXor3 {
			t.Errorf("xor3 lane %d = %v, want %v", v, got, wantXor3)
		}
	}
}

// TestApplyVecMatchesApply checks that one ApplyVec over k lanes leaves
// exactly the accumulated stress of k scalar Apply calls, including
// partial lane counts, and that Analyze then agrees bit for bit.
func TestApplyVecMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	params := nbti.DefaultParams()
	for trial := 0; trial < 20; trial++ {
		n := randomNetlist(rng, 1+rng.Intn(6), 1+rng.Intn(80))
		vec := NewStressSim(n)
		ref := NewStressSim(n)
		for round := 0; round < 3; round++ {
			lanes := 1 + rng.Intn(64)
			dt := uint64(1 + rng.Intn(1000))
			vectors, words := randomLaneInputs(rng, len(n.Inputs()), lanes)
			vec.ApplyVec(words, lanes, dt)
			for _, v := range vectors {
				ref.Apply(v, dt)
			}
		}
		if totalTime(vec) != totalTime(ref) {
			t.Fatalf("trial %d: total time %d != %d", trial, totalTime(vec), totalTime(ref))
		}
		for i := range vec.transistors {
			v, r := vec.transistors[i], ref.transistors[i]
			if v.zeroTime != r.zeroTime || v.totalTime != r.totalTime {
				t.Fatalf("trial %d transistor %d: vec (%d/%d) != scalar (%d/%d)",
					trial, i, v.zeroTime, v.totalTime, r.zeroTime, r.totalTime)
			}
		}
		if vec.Analyze(params) != ref.Analyze(params) {
			t.Fatalf("trial %d: Analyze reports differ", trial)
		}
	}
}

// TestAnalyzeLanesMatchesAnalyze checks that analyzing a lane subset of
// captured level words equals resetting and replaying those lanes
// through the scalar path.
func TestAnalyzeLanesMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	params := nbti.DefaultParams()
	for trial := 0; trial < 20; trial++ {
		n := randomNetlist(rng, 1+rng.Intn(6), 1+rng.Intn(80))
		sim := NewStressSim(n)
		lanes := 2 + rng.Intn(63)
		vectors, words := randomLaneInputs(rng, len(n.Inputs()), lanes)
		levels := sim.Levels(words)
		var mask uint64
		for l := 0; l < lanes; l++ {
			if rng.Intn(2) == 1 {
				mask |= 1 << uint(l)
			}
		}
		got := sim.AnalyzeLanes(levels, mask, params)
		ref := NewStressSim(n)
		for l := 0; l < lanes; l++ {
			if mask&(1<<uint(l)) != 0 {
				ref.Apply(vectors[l], 1)
			}
		}
		if want := ref.Analyze(params); got != want {
			t.Fatalf("trial %d mask %#x: AnalyzeLanes %+v != scalar %+v", trial, mask, got, want)
		}
		// AnalyzeLanes must not disturb accumulated state.
		if totalTime(sim) != 0 {
			t.Fatalf("trial %d: AnalyzeLanes accumulated stress", trial)
		}
	}
}

// TestStressSimResetAfterApplyVec checks Reset clears vector-accumulated
// stress and the simulator keeps working on both paths afterwards.
func TestStressSimResetAfterApplyVec(t *testing.T) {
	n := New()
	a := n.Input("a")
	n.INV(a, "inv")
	sim := NewStressSim(n)
	sim.ApplyVec([]uint64{0}, 64, 5) // all 64 lanes at "0": full stress
	if totalTime(sim) != 320 || sim.transistors[0].ZeroProb() != 1 {
		t.Fatalf("ApplyVec accumulation wrong: total=%d zp=%v",
			totalTime(sim), sim.transistors[0].ZeroProb())
	}
	sim.Reset()
	if totalTime(sim) != 0 || sim.transistors[0].ZeroProb() != 0 {
		t.Fatal("Reset did not clear vector-applied stress")
	}
	sim.ApplyVec([]uint64{^uint64(0)}, 32, 2) // 32 lanes at "1": relax only
	sim.Apply([]bool{false}, 4)               // scalar still works after Reset
	if totalTime(sim) != 68 {
		t.Errorf("totalTime = %d, want 68", totalTime(sim))
	}
	if got, want := sim.transistors[0].ZeroProb(), float64(4)/68; got != want {
		t.Errorf("ZeroProb = %v, want %v", got, want)
	}
}

// TestApplyVecEdgeCases covers dt=0, bad lane counts and bad buffer
// lengths.
func TestApplyVecEdgeCases(t *testing.T) {
	n := New()
	a := n.Input("a")
	n.INV(a, "inv")
	sim := NewStressSim(n)
	sim.ApplyVec([]uint64{0}, 64, 0) // zero dt is a no-op
	if totalTime(sim) != 0 {
		t.Error("zero-dt ApplyVec must not accumulate")
	}
	for _, f := range []func(){
		func() { sim.ApplyVec([]uint64{0}, 0, 1) },  // no lanes
		func() { sim.ApplyVec([]uint64{0}, 65, 1) }, // too many lanes
		func() { sim.ApplyVec(nil, 1, 1) },          // wrong input count
		func() { sim.LevelsInto([]uint64{0}, nil) }, // wrong levels length
		func() { n.Compile().EvalVecInto([]uint64{0}, nil) },
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

package circuit

import (
	"fmt"
	"math/bits"

	"penelope/internal/nbti"
)

// tapKind says where inside a gate's CMOS implementation a PMOS gate
// terminal is connected.
type tapKind int

const (
	tapIn     tapKind = iota // PMOS gate sees input pin Pin directly
	tapInInv                 // PMOS gate sees the complement of input pin Pin
	tapOutInv                // PMOS gate sees the complement of the gate output
)

// tap describes one PMOS transistor of a gate template.
type tap struct {
	Kind tapKind
	Pin  int
}

// pmosTemplates maps each gate kind to the PMOS transistors of its
// standard static-CMOS implementation and the signal each one observes:
//
//	INV    — one PMOS on the input.
//	BUF    — inverter pair: PMOS on input and on the inverted input.
//	NAND2  — two parallel PMOS, one per input.
//	NOR2   — two series PMOS, one per input.
//	AND2   — NAND2 plus output inverter whose PMOS sees the NAND output,
//	         i.e. the complement of the AND output. OR2 likewise from NOR2.
//	XOR2   — complementary pass/static implementation with local input
//	         inverters: PMOS on both inputs and both complements. XNOR2
//	         identical (the paper's XNOR in read/write paths, §3).
//	MUX2   — transmission-gate mux with select inverter: PMOS on select,
//	         its complement, and both data inputs.
var pmosTemplates = map[Kind][]tap{
	KindINV:   {{tapIn, 0}},
	KindBUF:   {{tapIn, 0}, {tapInInv, 0}},
	KindNAND2: {{tapIn, 0}, {tapIn, 1}},
	KindNOR2:  {{tapIn, 0}, {tapIn, 1}},
	KindAND2:  {{tapIn, 0}, {tapIn, 1}, {tapOutInv, 0}},
	KindOR2:   {{tapIn, 0}, {tapIn, 1}, {tapOutInv, 0}},
	KindXOR2:  {{tapIn, 0}, {tapIn, 1}, {tapInInv, 0}, {tapInInv, 1}},
	KindXNOR2: {{tapIn, 0}, {tapIn, 1}, {tapInInv, 0}, {tapInInv, 1}},
	KindMUX2:  {{tapIn, 0}, {tapInInv, 0}, {tapIn, 1}, {tapIn, 2}},
	KindXOR3:  {{tapIn, 0}, {tapIn, 1}, {tapIn, 2}, {tapInInv, 0}, {tapInInv, 1}, {tapInInv, 2}},
}

// Transistor identifies one PMOS device in an elaborated netlist and
// carries its accumulated stress statistics.
type Transistor struct {
	Wide bool // width class, inherited from the gate

	zeroTime  uint64 // time observed at logic "0" (under stress)
	totalTime uint64
}

// ZeroProb returns the fraction of observed time this PMOS saw a "0" at
// its gate — its zero-signal probability. Returns 0 before any
// observation (fresh transistor, no stress).
func (t *Transistor) ZeroProb() float64 {
	if t.totalTime == 0 {
		return 0
	}
	return float64(t.zeroTime) / float64(t.totalTime)
}

// tapSite is one entry of the compiled tap program: the signal a PMOS
// gate terminal observes and whether it sees its complement. Every tap
// template reduces to this form (tapIn → the input pin, tapInInv → the
// inverted input pin, tapOutInv → the inverted gate output), so Apply
// and ApplyVec walk a flat array with no map lookups or branches on tap
// kind.
type tapSite struct {
	sig    int32
	invert bool
}

// StressSim elaborates a netlist into its PMOS transistors and
// accumulates per-transistor stress as input vectors are applied.
type StressSim struct {
	netlist     *Netlist
	prog        *Program
	transistors []Transistor
	taps        []tapSite // compiled tap program, aligned with transistors
	vals        []bool    // scratch scalar evaluation buffer
	valsVec     []uint64  // scratch vector evaluation buffer
}

// NewStressSim returns a stress simulator for the netlist. Input and
// constant pseudo-gates contribute no transistors. The netlist is
// compiled once here: the tap table collapses into a flat
// (signal, invert) program and the gate array into a vector-evaluation
// program, so the per-Apply inner loops touch neither maps nor Gate
// structs.
func NewStressSim(n *Netlist) *StressSim {
	return NewStressSimCompiled(n, n.Compile())
}

// NewStressSimCompiled is NewStressSim reusing an already compiled
// program for the same netlist, for callers that construct many
// simulators over one circuit.
func NewStressSimCompiled(n *Netlist, prog *Program) *StressSim {
	if prog.NumSignals() != n.NumSignals() || prog.NumInputs() != len(n.Inputs()) {
		panic("circuit: program does not match netlist")
	}
	s := &StressSim{
		netlist: n,
		prog:    prog,
		vals:    make([]bool, n.NumSignals()),
		valsVec: make([]uint64, n.NumSignals()),
	}
	count := 0
	for _, g := range n.Gates() {
		count += len(pmosTemplates[g.Kind])
	}
	s.transistors = make([]Transistor, 0, count)
	s.taps = make([]tapSite, 0, count)
	for _, g := range n.Gates() {
		for _, tp := range pmosTemplates[g.Kind] {
			s.transistors = append(s.transistors, Transistor{Wide: g.Wide})
			switch tp.Kind {
			case tapIn:
				s.taps = append(s.taps, tapSite{sig: int32(g.In[tp.Pin])})
			case tapInInv:
				s.taps = append(s.taps, tapSite{sig: int32(g.In[tp.Pin]), invert: true})
			case tapOutInv:
				s.taps = append(s.taps, tapSite{sig: int32(g.Out), invert: true})
			}
		}
	}
	return s
}

// Apply evaluates the netlist under inputs and accounts dt time units of
// stress on every PMOS whose gate terminal observes a "0". This is the
// scalar oracle path; ApplyVec is the 64-lane equivalent.
func (s *StressSim) Apply(inputs []bool, dt uint64) {
	if dt == 0 {
		return
	}
	s.netlist.EvalInto(inputs, s.vals)
	for i, tp := range s.taps {
		tr := &s.transistors[i]
		tr.totalTime += dt
		if s.vals[tp.sig] == tp.invert { // level is "0"
			tr.zeroTime += dt
		}
	}
}

// laneMask returns the mask selecting the low `lanes` lanes.
func laneMask(lanes int) uint64 {
	if lanes < 1 || lanes > 64 {
		panic(fmt.Sprintf("circuit: lane count %d out of range [1,64]", lanes))
	}
	return ^uint64(0) >> uint(64-lanes)
}

// ApplyVec evaluates up to 64 independent input vectors in one bitwise
// pass and accounts dt time units of stress per lane: each of the low
// `lanes` lanes is a distinct time slice, so a transistor accumulates
// dt·lanes of total time and dt per lane whose gate terminal observes a
// "0" (counted with bits.OnesCount64). The accumulated totals are
// exactly those of `lanes` scalar Apply calls with the same dt — stress
// accounting is an order-independent sum.
//
// inputs follows the Program.EvalVec layout: one word per primary input,
// bit l = the input's value in lane l. Garbage in lanes ≥ `lanes` is
// masked off.
func (s *StressSim) ApplyVec(inputs []uint64, lanes int, dt uint64) {
	if dt == 0 {
		return
	}
	mask := laneMask(lanes)
	total := dt * uint64(lanes)
	s.prog.EvalVecInto(inputs, s.valsVec)
	for i, tp := range s.taps {
		w := s.valsVec[tp.sig]
		if tp.invert {
			w = ^w
		}
		tr := &s.transistors[i]
		tr.totalTime += total
		tr.zeroTime += dt * uint64(bits.OnesCount64(^w&mask))
	}
}

// Levels evaluates up to 64 input vectors and returns, per transistor,
// the word of logic levels its gate terminal observes (bit l = level in
// lane l). Nothing is accumulated — Levels is the observation half of
// ApplyVec, letting callers account one evaluation against many
// different lane subsets (AnalyzeLanes) without re-evaluating.
func (s *StressSim) Levels(inputs []uint64) []uint64 {
	out := make([]uint64, len(s.taps))
	s.LevelsInto(inputs, out)
	return out
}

// LevelsInto is Levels filling a caller-provided slice with one word
// per transistor.
func (s *StressSim) LevelsInto(inputs []uint64, out []uint64) {
	if len(out) != len(s.taps) {
		panic("circuit: LevelsInto slice has wrong length")
	}
	s.prog.EvalVecInto(inputs, s.valsVec)
	for i, tp := range s.taps {
		w := s.valsVec[tp.sig]
		if tp.invert {
			w = ^w
		}
		out[i] = w
	}
}

// Reset clears all accumulated stress.
func (s *StressSim) Reset() {
	for i := range s.transistors {
		s.transistors[i].zeroTime = 0
		s.transistors[i].totalTime = 0
	}
}

// Report summarizes the stress state of a netlist for NBTI purposes.
type Report struct {
	Transistors int
	Narrow      int
	Wide        int

	// WorstNarrowZeroProb is the highest zero-signal probability of any
	// narrow transistor; WorstEffectiveBias folds width in via
	// nbti.Params.EffectiveBias and is what sets the guardband.
	WorstNarrowZeroProb float64
	WorstEffectiveBias  float64

	// NarrowFullyStressed is the fraction of ALL transistors that are
	// narrow and saw "0" 100% of the time — the Figure 4 metric.
	NarrowFullyStressed float64

	// Guardband is the cycle-time guardband the block requires given the
	// worst effective bias.
	Guardband float64
}

// Analyze computes the stress report under the given NBTI calibration.
func (s *StressSim) Analyze(p nbti.Params) Report {
	return s.analyzeWith(p, func(i int) float64 { return s.transistors[i].ZeroProb() })
}

// AnalyzeLanes computes the stress report a round-robin application of
// the lanes selected by laneMask would produce, from level words
// captured with Levels. Each selected lane counts as one equal time
// slice, so a transistor's zero-signal probability is the fraction of
// selected lanes where it observes a "0" — bit-identical to Reset +
// one scalar Apply per selected lane + Analyze. The simulator's
// accumulated state is neither read nor modified, so concurrent
// AnalyzeLanes calls on one simulator are safe.
func (s *StressSim) AnalyzeLanes(words []uint64, laneMask uint64, p nbti.Params) Report {
	if len(words) != len(s.transistors) {
		panic("circuit: AnalyzeLanes words slice has wrong length")
	}
	lanes := bits.OnesCount64(laneMask)
	if lanes == 0 {
		// No observations: every transistor is fresh, matching ZeroProb.
		return s.analyzeWith(p, func(int) float64 { return 0 })
	}
	// A transistor's zero-signal probability and effective bias depend
	// only on its zero-lane count and width class, so the float division
	// and bias interpolation run lanes+1 times into lookup tables instead
	// of once per transistor; the loop body mirrors analyzeWith. The
	// fixed-size backing arrays keep the tables off the heap (lanes ≤ 64).
	var zpArr, ebNarrowArr, ebWideArr [65]float64
	zp, ebNarrow, ebWide := zpArr[:lanes+1], ebNarrowArr[:lanes+1], ebWideArr[:lanes+1]
	for c := 0; c <= lanes; c++ {
		zp[c] = float64(c) / float64(lanes)
		ebNarrow[c] = p.EffectiveBias(zp[c], false)
		ebWide[c] = p.EffectiveBias(zp[c], true)
	}
	r := Report{Transistors: len(s.transistors)}
	fullyStressed := 0
	for i := range s.transistors {
		c := bits.OnesCount64(^words[i] & laneMask)
		var eb float64
		if s.transistors[i].Wide {
			r.Wide++
			eb = ebWide[c]
		} else {
			r.Narrow++
			if zp[c] > r.WorstNarrowZeroProb {
				r.WorstNarrowZeroProb = zp[c]
			}
			if zp[c] >= 1 {
				fullyStressed++
			}
			eb = ebNarrow[c]
		}
		if eb > r.WorstEffectiveBias {
			r.WorstEffectiveBias = eb
		}
	}
	if r.Transistors > 0 {
		r.NarrowFullyStressed = float64(fullyStressed) / float64(r.Transistors)
	}
	r.Guardband = p.Guardband(r.WorstEffectiveBias)
	return r
}

// analyzeWith is the shared Analyze body, parameterized over where each
// transistor's zero-signal probability comes from.
func (s *StressSim) analyzeWith(p nbti.Params, zeroProb func(i int) float64) Report {
	r := Report{Transistors: len(s.transistors)}
	fullyStressed := 0
	for i := range s.transistors {
		tr := &s.transistors[i]
		zp := zeroProb(i)
		if tr.Wide {
			r.Wide++
		} else {
			r.Narrow++
			if zp > r.WorstNarrowZeroProb {
				r.WorstNarrowZeroProb = zp
			}
			if zp >= 1 {
				fullyStressed++
			}
		}
		if eb := p.EffectiveBias(zp, tr.Wide); eb > r.WorstEffectiveBias {
			r.WorstEffectiveBias = eb
		}
	}
	if r.Transistors > 0 {
		r.NarrowFullyStressed = float64(fullyStressed) / float64(r.Transistors)
	}
	r.Guardband = p.Guardband(r.WorstEffectiveBias)
	return r
}

// String renders the report compactly for experiment logs.
func (r Report) String() string {
	return fmt.Sprintf(
		"pmos=%d (narrow=%d wide=%d) worstNarrowZero=%.3f worstEffBias=%.3f narrow100%%=%.2f%% guardband=%.1f%%",
		r.Transistors, r.Narrow, r.Wide, r.WorstNarrowZeroProb,
		r.WorstEffectiveBias, r.NarrowFullyStressed*100, r.Guardband*100)
}

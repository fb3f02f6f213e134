// Package adder builds the 32-bit Ladner-Fischer prefix adder of paper
// §4.3 as a gate-level netlist and evaluates NBTI stress on it.
//
// The Ladner-Fischer adder [Ladner & Fischer, JACM 1980] is a parallel
// prefix adder; we implement the minimum-depth member of the family
// (log₂(n) prefix levels, divide-and-conquer structure). The carry tree
// uses inclusive propagate (p = a OR b, valid for carry computation), the
// sum stage uses monolithic XOR3 cells, and ALU-style flag logic
// (zero-detect tree, overflow, negative) completes the block. High-fanout
// prefix nodes are widened automatically, mirroring the paper's
// observation that wide PMOS tolerate stress (§4.3).
package adder

import (
	"fmt"

	"penelope/internal/circuit"
)

// Adder is an elaborated Ladner-Fischer adder. The netlist is compiled
// once at construction into a bit-parallel program (prog), so Eval,
// EvalBatch and the aging sweeps evaluate 64 input vectors per pass;
// the interpreted netlist remains available as the scalar oracle.
type Adder struct {
	width   int
	netlist *circuit.Netlist
	prog    *circuit.Program
	a, b    []circuit.Signal
	cin     circuit.Signal
	sum     []circuit.Signal
	cout    circuit.Signal
	zero    circuit.Signal
	ovf     circuit.Signal
	neg     circuit.Signal
	levels  int
}

// New builds a Ladner-Fischer adder of the given width. Width must be a
// power of two in [4, 64]. Gates whose output fanout is at least
// wideFanout get wide PMOS transistors; pass 0 for the default of 5.
func New(width, wideFanout int) *Adder {
	if width < 4 || width > 64 || width&(width-1) != 0 {
		panic("adder: width must be a power of two in [4, 64]")
	}
	if wideFanout == 0 {
		wideFanout = 5
	}
	n := circuit.New()
	ad := &Adder{width: width, netlist: n}

	for i := 0; i < width; i++ {
		ad.a = append(ad.a, n.Input(fmt.Sprintf("a%d", i)))
	}
	for i := 0; i < width; i++ {
		ad.b = append(ad.b, n.Input(fmt.Sprintf("b%d", i)))
	}
	ad.cin = n.Input("cin")

	// Preprocessing: generate and inclusive propagate per bit.
	g := make([]circuit.Signal, width)
	p := make([]circuit.Signal, width)
	for i := 0; i < width; i++ {
		g[i] = n.AND2(ad.a[i], ad.b[i], fmt.Sprintf("g%d", i))
		p[i] = n.OR2(ad.a[i], ad.b[i], fmt.Sprintf("p%d", i))
	}
	// Fold the carry-in into position 0: g0' = g0 OR (p0 AND cin). The
	// PMOS tapping cin here is the one the paper's motivation singles
	// out: real carry-in is "0" more than 90% of the time (§1.1).
	pcin := n.AND2(p[0], ad.cin, "p0cin")
	g0p := n.OR2(g[0], pcin, "g0'")

	// Prefix tree: minimum-depth Ladner-Fischer. At level k, positions
	// with bit k-1 set combine with the rightmost position of the
	// preceding 2^(k-1)-aligned block.
	G := make([]circuit.Signal, width)
	P := make([]circuit.Signal, width)
	copy(G, g)
	G[0] = g0p
	copy(P, p)
	for k := 1; 1<<uint(k-1) < width; k++ {
		ad.levels++
		nextG := make([]circuit.Signal, width)
		nextP := make([]circuit.Signal, width)
		copy(nextG, G)
		copy(nextP, P)
		for i := 0; i < width; i++ {
			if (i>>uint(k-1))&1 == 0 {
				continue
			}
			j := (i>>uint(k-1))<<uint(k-1) - 1 // rightmost of lower block
			t := n.AND2(P[i], G[j], fmt.Sprintf("t%d_%d", k, i))
			nextG[i] = n.OR2(G[i], t, fmt.Sprintf("G%d_%d", k, i))
			nextP[i] = n.AND2(P[i], P[j], fmt.Sprintf("P%d_%d", k, i))
		}
		G, P = nextG, nextP
	}

	// Carries: c_0 = cin, c_{i} = G[i-1] for i in 1..width (c_width is
	// the carry out).
	carries := make([]circuit.Signal, width+1)
	carries[0] = ad.cin
	for i := 1; i <= width; i++ {
		carries[i] = G[i-1]
	}
	ad.cout = carries[width]

	// Sum stage: monolithic XOR3 cells.
	ad.sum = make([]circuit.Signal, width)
	for i := 0; i < width; i++ {
		ad.sum[i] = n.XOR3(ad.a[i], ad.b[i], carries[i], fmt.Sprintf("s%d", i))
	}

	// ALU flags. The zero flag is a balanced OR tree over the sum bits
	// followed by an inverter; it is the one place a signal that is "0"
	// under both all-zeros and complemented operands survives, leaving
	// the handful of fully stressed transistors §4.3 mentions.
	or := ad.sum
	level := 0
	for len(or) > 1 {
		level++
		var next []circuit.Signal
		for i := 0; i+1 < len(or); i += 2 {
			next = append(next, n.OR2(or[i], or[i+1], fmt.Sprintf("z%d_%d", level, i/2)))
		}
		if len(or)%2 == 1 {
			next = append(next, or[len(or)-1])
		}
		or = next
	}
	ad.zero = n.INV(or[0], "zero")
	n.BUF(ad.zero, "zero_out") // flag output buffer: consumes the zero signal

	ad.ovf = n.XOR2(carries[width-1], carries[width], "overflow")
	ad.neg = n.BUF(ad.sum[width-1], "negative")

	n.AutoWiden(wideFanout)
	ad.prog = n.Compile()
	return ad
}

// New32 builds the paper's 32-bit configuration with default widening.
func New32() *Adder { return New(32, 0) }

// Netlist exposes the underlying netlist.
func (ad *Adder) Netlist() *circuit.Netlist { return ad.netlist }

// NewStressSim returns a stress simulator over the adder netlist that
// shares the adder's compiled program instead of recompiling it —
// the constructor the aging sweeps use.
func (ad *Adder) NewStressSim() *circuit.StressSim {
	return circuit.NewStressSimCompiled(ad.netlist, ad.prog)
}

// PrefixLevels returns the number of prefix-tree levels (log₂ width).
func (ad *Adder) PrefixLevels() int { return ad.levels }

// InputVector packs operands and carry-in into a primary-input vector in
// the order the netlist expects.
func (ad *Adder) InputVector(a, b uint64, cin bool) []bool {
	v := make([]bool, 2*ad.width+1)
	for i := 0; i < ad.width; i++ {
		v[i] = a&(1<<uint(i)) != 0
		v[ad.width+i] = b&(1<<uint(i)) != 0
	}
	v[2*ad.width] = cin
	return v
}

// Operands is one adder input vector: two operands plus carry-in.
type Operands struct {
	A, B uint64
	Cin  bool
}

// InputWords transposes up to 64 operand triples into the word layout
// the compiled program consumes: one word per primary input, bit l
// holding lane l's value. Lanes beyond len(ops) are zero (and masked off
// by every consumer).
func (ad *Adder) InputWords(ops []Operands) []uint64 {
	if len(ops) > 64 {
		panic("adder: more than 64 lanes")
	}
	words := make([]uint64, 2*ad.width+1)
	ad.inputWordsInto(ops, words)
	return words
}

// inputWordsInto is InputWords filling a caller-provided slice, for the
// allocation-free aging loops.
func (ad *Adder) inputWordsInto(ops []Operands, words []uint64) {
	for i := range words {
		words[i] = 0
	}
	for l, op := range ops {
		bit := uint64(1) << uint(l)
		for i := 0; i < ad.width; i++ {
			if op.A&(1<<uint(i)) != 0 {
				words[i] |= bit
			}
			if op.B&(1<<uint(i)) != 0 {
				words[ad.width+i] |= bit
			}
		}
		if op.Cin {
			words[2*ad.width] |= bit
		}
	}
}

// Result is the decoded output of one adder evaluation.
type Result struct {
	Sum      uint64
	CarryOut bool
	Zero     bool
	Overflow bool
	Negative bool
}

// Eval runs the compiled netlist on the given operands and decodes the
// outputs. EvalScalar is the interpreted equivalent.
func (ad *Adder) Eval(a, b uint64, cin bool) Result {
	vals := ad.prog.EvalVec(ad.InputWords([]Operands{{A: a, B: b, Cin: cin}}))
	return ad.decodeLane(vals, 0)
}

// EvalScalar runs the interpreted (one bool per signal) netlist — the
// oracle the bit-parallel path is validated against.
func (ad *Adder) EvalScalar(a, b uint64, cin bool) Result {
	vals := ad.netlist.Eval(ad.InputVector(a, b, cin))
	var r Result
	for i, s := range ad.sum {
		if vals[s] {
			r.Sum |= 1 << uint(i)
		}
	}
	r.CarryOut = vals[ad.cout]
	r.Zero = vals[ad.zero]
	r.Overflow = vals[ad.ovf]
	r.Negative = vals[ad.neg]
	return r
}

// EvalBatch evaluates any number of operand triples through the
// bit-parallel program, 64 lanes per netlist pass, and returns one
// decoded Result per input in order.
func (ad *Adder) EvalBatch(ops []Operands) []Result {
	out := make([]Result, len(ops))
	if len(ops) == 0 {
		return out
	}
	words := make([]uint64, 2*ad.width+1)
	vals := make([]uint64, ad.prog.NumSignals())
	for base := 0; base < len(ops); base += 64 {
		chunk := ops[base:min(base+64, len(ops))]
		ad.inputWordsInto(chunk, words)
		ad.prog.EvalVecInto(words, vals)
		for l := range chunk {
			out[base+l] = ad.decodeLane(vals, l)
		}
	}
	return out
}

// decodeLane extracts lane l of a vector evaluation into a Result.
func (ad *Adder) decodeLane(vals []uint64, l int) Result {
	var r Result
	bit := uint64(1) << uint(l)
	for i, s := range ad.sum {
		if vals[s]&bit != 0 {
			r.Sum |= 1 << uint(i)
		}
	}
	r.CarryOut = vals[ad.cout]&bit != 0
	r.Zero = vals[ad.zero]&bit != 0
	r.Overflow = vals[ad.ovf]&bit != 0
	r.Negative = vals[ad.neg]&bit != 0
	return r
}

// Reference computes the expected outputs behaviourally, for validation.
func (ad *Adder) Reference(a, b uint64, cin bool) Result {
	mask := uint64(1)<<uint(ad.width) - 1
	a &= mask
	b &= mask
	c := uint64(0)
	if cin {
		c = 1
	}
	full := a + b + c
	sum := full & mask
	var r Result
	r.Sum = sum
	r.CarryOut = full>>uint(ad.width) != 0
	r.Zero = sum == 0
	r.Negative = sum>>(uint(ad.width)-1) != 0
	sign := uint64(1) << uint(ad.width-1)
	r.Overflow = (a&sign) == (b&sign) && (sum&sign) != (a&sign)
	return r
}

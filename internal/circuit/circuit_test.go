package circuit

import (
	"testing"
	"testing/quick"
)

// buildFullAdder wires a 1-bit full adder out of basic gates:
// sum = a⊕b⊕cin, cout = ab + cin(a⊕b).
func buildFullAdder() (*Netlist, []Signal, Signal, Signal) {
	n := New()
	a := n.Input("a")
	b := n.Input("b")
	cin := n.Input("cin")
	axb := n.XOR2(a, b, "axb")
	sum := n.XOR2(axb, cin, "sum")
	ab := n.AND2(a, b, "ab")
	pc := n.AND2(axb, cin, "pc")
	cout := n.OR2(ab, pc, "cout")
	return n, []Signal{a, b, cin}, sum, cout
}

// bitsOf converts the low n bits of v into a bool slice, LSB first.
func bitsOf(v uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v&(1<<uint(i)) != 0
	}
	return out
}

// setWide marks the gate driving s as using wide PMOS transistors.
func setWide(n *Netlist, s Signal) { n.gates[n.drivers[s]].Wide = true }

func TestFullAdderTruthTable(t *testing.T) {
	n, _, sum, cout := buildFullAdder()
	for v := 0; v < 8; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0}
		vals := n.Eval(in)
		ones := 0
		for _, x := range in {
			if x {
				ones++
			}
		}
		if got, want := vals[sum], ones%2 == 1; got != want {
			t.Errorf("v=%d sum=%v want %v", v, got, want)
		}
		if got, want := vals[cout], ones >= 2; got != want {
			t.Errorf("v=%d cout=%v want %v", v, got, want)
		}
	}
}

func TestGateTruthTables(t *testing.T) {
	type gateCase struct {
		name  string
		build func(n *Netlist, in []Signal) Signal
		arity int
		fn    func(in []bool) bool
	}
	cases := []gateCase{
		{"inv", func(n *Netlist, in []Signal) Signal { return n.INV(in[0], "g") }, 1,
			func(in []bool) bool { return !in[0] }},
		{"buf", func(n *Netlist, in []Signal) Signal { return n.BUF(in[0], "g") }, 1,
			func(in []bool) bool { return in[0] }},
		{"nand2", func(n *Netlist, in []Signal) Signal { return n.NAND2(in[0], in[1], "g") }, 2,
			func(in []bool) bool { return !(in[0] && in[1]) }},
		{"nor2", func(n *Netlist, in []Signal) Signal { return n.NOR2(in[0], in[1], "g") }, 2,
			func(in []bool) bool { return !(in[0] || in[1]) }},
		{"and2", func(n *Netlist, in []Signal) Signal { return n.AND2(in[0], in[1], "g") }, 2,
			func(in []bool) bool { return in[0] && in[1] }},
		{"or2", func(n *Netlist, in []Signal) Signal { return n.OR2(in[0], in[1], "g") }, 2,
			func(in []bool) bool { return in[0] || in[1] }},
		{"xor2", func(n *Netlist, in []Signal) Signal { return n.XOR2(in[0], in[1], "g") }, 2,
			func(in []bool) bool { return in[0] != in[1] }},
		{"xnor2", func(n *Netlist, in []Signal) Signal { return n.XNOR2(in[0], in[1], "g") }, 2,
			func(in []bool) bool { return in[0] == in[1] }},
		{"mux2", func(n *Netlist, in []Signal) Signal { return n.MUX2(in[0], in[1], in[2], "g") }, 3,
			func(in []bool) bool {
				if in[0] {
					return in[2]
				}
				return in[1]
			}},
		{"xor3", func(n *Netlist, in []Signal) Signal { return n.XOR3(in[0], in[1], in[2], "g") }, 3,
			func(in []bool) bool { return in[0] != in[1] != in[2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := New()
			var ins []Signal
			for i := 0; i < tc.arity; i++ {
				ins = append(ins, n.Input("i"))
			}
			out := tc.build(n, ins)
			for v := 0; v < 1<<tc.arity; v++ {
				in := bitsOf(uint64(v), tc.arity)
				vals := n.Eval(in)
				if got, want := vals[out], tc.fn(in); got != want {
					t.Errorf("inputs %v: got %v, want %v", in, got, want)
				}
			}
		})
	}
}

func TestConstSignals(t *testing.T) {
	n := New()
	one := n.Const(true, "one")
	zero := n.Const(false, "zero")
	out := n.AND2(one, zero, "and")
	vals := n.Eval(nil)
	if vals[one] != true || vals[zero] != false || vals[out] != false {
		t.Error("constants not propagated")
	}
}

func TestFanoutTracking(t *testing.T) {
	n := New()
	a := n.Input("a")
	n.INV(a, "x")
	n.INV(a, "y")
	b := n.BUF(a, "z")
	if got := n.fanout[a]; got != 3 {
		t.Errorf("fanout(a) = %d, want 3", got)
	}
	if got := n.fanout[b]; got != 0 {
		t.Errorf("fanout(b) = %d, want 0", got)
	}
}

func TestAutoWiden(t *testing.T) {
	n := New()
	a := n.Input("a")
	hub := n.INV(a, "hub")
	for i := 0; i < 4; i++ {
		n.INV(hub, "leaf")
	}
	widened := n.AutoWiden(4)
	if widened != 1 {
		t.Fatalf("AutoWiden widened %d gates, want 1", widened)
	}
	if !n.Gate(hub).Wide {
		t.Error("hub gate should be wide")
	}
	// Inputs never widen even with high fanout.
	n2 := New()
	a2 := n2.Input("a")
	for i := 0; i < 8; i++ {
		n2.INV(a2, "leaf")
	}
	if n2.AutoWiden(4) != 0 {
		t.Error("inputs must not be widened")
	}
}

func TestEvalPanics(t *testing.T) {
	n := New()
	n.Input("a")
	for _, f := range []func(){
		func() { n.Eval(nil) },                    // wrong input count
		func() { n.EvalInto([]bool{true}, nil) },  // wrong buffer
		func() { n.INV(Signal(99), "bad") },       // unknown signal
		func() { n.addGate(KindNAND2, "bad", 0) }, // wrong arity
		func() { n.BUF(Signal(-1), "bad") },       // bad signal
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

func TestKindString(t *testing.T) {
	if KindNAND2.String() != "nand2" {
		t.Errorf("KindNAND2 = %q", KindNAND2.String())
	}
	if Kind(999).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestEvalIntoMatchesEval(t *testing.T) {
	n, _, _, _ := buildFullAdder()
	buf := make([]bool, n.NumSignals())
	f := func(v uint8) bool {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0}
		n.EvalInto(in, buf)
		ref := n.Eval(in)
		for i := range ref {
			if buf[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Package circuit provides a gate-level combinational netlist simulator
// with CMOS-aware stress accounting: for every gate it knows which PMOS
// transistors its static-CMOS implementation contains and which logic
// signal each PMOS gate terminal observes. Driving the netlist with input
// vectors therefore yields, per transistor, the zero-signal probability
// that NBTI degradation depends on (paper §1.1, §3.1, §4.3).
//
// Netlists are built through a builder API (Input, INV, NAND2, ...) that
// creates gates in topological order, then evaluated combinationally with
// Eval. The package is purely structural — no timing — because the
// paper's combinational results only need signal probabilities plus a
// narrow/wide width class per transistor.
package circuit

import "fmt"

// Signal identifies a node (wire) in a netlist.
type Signal int

// Kind enumerates the supported gate types.
type Kind int

// Supported gate kinds. Composite kinds (AND2, OR2, XOR2, XNOR2, MUX2)
// model their standard static-CMOS implementations, including the PMOS
// transistors of internal inverters.
const (
	KindInput Kind = iota
	KindConst
	KindINV
	KindBUF
	KindNAND2
	KindNOR2
	KindAND2
	KindOR2
	KindXOR2
	KindXNOR2
	KindMUX2 // In[0]=select, In[1]=when select 0, In[2]=when select 1
	KindXOR3 // monolithic three-input XOR cell (sum stage of fast adders)
)

var kindNames = map[Kind]string{
	KindInput: "input", KindConst: "const", KindINV: "inv", KindBUF: "buf",
	KindNAND2: "nand2", KindNOR2: "nor2", KindAND2: "and2", KindOR2: "or2",
	KindXOR2: "xor2", KindXNOR2: "xnor2", KindMUX2: "mux2", KindXOR3: "xor3",
}

// String returns the lower-case conventional name of the gate kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// arity returns the number of inputs a gate kind takes.
func (k Kind) arity() int {
	switch k {
	case KindInput, KindConst:
		return 0
	case KindINV, KindBUF:
		return 1
	case KindMUX2, KindXOR3:
		return 3
	default:
		return 2
	}
}

// Gate is one netlist element. Out is the signal the gate drives.
type Gate struct {
	Kind  Kind
	In    []Signal
	Out   Signal
	Name  string
	Wide  bool // width class of the gate's PMOS transistors
	Const bool // for KindConst: the driven value
}

// Netlist is a combinational circuit under construction or evaluation.
// Gates are stored in topological order by construction: a gate can only
// reference signals that already exist.
type Netlist struct {
	gates   []Gate
	drivers []int // signal -> index of driving gate
	inputs  []Signal
	fanout  []int // signal -> number of gate inputs it feeds
}

// New returns an empty netlist.
func New() *Netlist { return &Netlist{} }

// NumSignals returns the number of nodes in the netlist.
func (n *Netlist) NumSignals() int { return len(n.drivers) }

// NumGates returns the number of gates (inputs and constants included).
func (n *Netlist) NumGates() int { return len(n.gates) }

// Inputs returns the primary input signals in creation order.
func (n *Netlist) Inputs() []Signal { return n.inputs }

// Gate returns the gate driving signal s.
func (n *Netlist) Gate(s Signal) Gate { return n.gates[n.drivers[s]] }

// Gates returns all gates in topological order.
func (n *Netlist) Gates() []Gate { return n.gates }

func (n *Netlist) newSignal(g Gate) Signal {
	s := Signal(len(n.drivers))
	g.Out = s
	n.gates = append(n.gates, g)
	n.drivers = append(n.drivers, len(n.gates)-1)
	n.fanout = append(n.fanout, 0)
	return s
}

func (n *Netlist) checkSignals(ss ...Signal) {
	for _, s := range ss {
		if s < 0 || int(s) >= len(n.drivers) {
			panic(fmt.Sprintf("circuit: signal %d does not exist", s))
		}
	}
}

// Input creates a primary input.
func (n *Netlist) Input(name string) Signal {
	s := n.newSignal(Gate{Kind: KindInput, Name: name})
	n.inputs = append(n.inputs, s)
	return s
}

// Const creates a signal tied to a constant value.
func (n *Netlist) Const(v bool, name string) Signal {
	return n.newSignal(Gate{Kind: KindConst, Name: name, Const: v})
}

func (n *Netlist) addGate(k Kind, name string, in ...Signal) Signal {
	if len(in) != k.arity() {
		panic(fmt.Sprintf("circuit: %v takes %d inputs, got %d", k, k.arity(), len(in)))
	}
	n.checkSignals(in...)
	for _, s := range in {
		n.fanout[s]++
	}
	ins := make([]Signal, len(in))
	copy(ins, in)
	return n.newSignal(Gate{Kind: k, In: ins, Name: name})
}

// INV adds an inverter.
func (n *Netlist) INV(a Signal, name string) Signal { return n.addGate(KindINV, name, a) }

// BUF adds a buffer (two cascaded inverters).
func (n *Netlist) BUF(a Signal, name string) Signal { return n.addGate(KindBUF, name, a) }

// NAND2 adds a 2-input NAND.
func (n *Netlist) NAND2(a, b Signal, name string) Signal { return n.addGate(KindNAND2, name, a, b) }

// NOR2 adds a 2-input NOR.
func (n *Netlist) NOR2(a, b Signal, name string) Signal { return n.addGate(KindNOR2, name, a, b) }

// AND2 adds a 2-input AND (NAND followed by an inverter).
func (n *Netlist) AND2(a, b Signal, name string) Signal { return n.addGate(KindAND2, name, a, b) }

// OR2 adds a 2-input OR (NOR followed by an inverter).
func (n *Netlist) OR2(a, b Signal, name string) Signal { return n.addGate(KindOR2, name, a, b) }

// XOR2 adds a 2-input XOR.
func (n *Netlist) XOR2(a, b Signal, name string) Signal { return n.addGate(KindXOR2, name, a, b) }

// XNOR2 adds a 2-input XNOR.
func (n *Netlist) XNOR2(a, b Signal, name string) Signal { return n.addGate(KindXNOR2, name, a, b) }

// MUX2 adds a 2-way multiplexer: out = sel ? b : a.
func (n *Netlist) MUX2(sel, a, b Signal, name string) Signal {
	return n.addGate(KindMUX2, name, sel, a, b)
}

// XOR3 adds a monolithic 3-input XOR cell. Fast adders use compound XOR3
// cells for the sum stage so the intermediate a⊕b never appears on a
// wire; its PMOS transistors observe only the inputs and their local
// complements.
func (n *Netlist) XOR3(a, b, c Signal, name string) Signal {
	return n.addGate(KindXOR3, name, a, b, c)
}

// AutoWiden marks every gate whose output fanout is at least minFanout as
// wide. It returns the number of gates widened. Call after construction.
func (n *Netlist) AutoWiden(minFanout int) int {
	count := 0
	for i := range n.gates {
		g := &n.gates[i]
		if g.Kind == KindInput || g.Kind == KindConst {
			continue
		}
		if n.fanout[g.Out] >= minFanout {
			if !g.Wide {
				g.Wide = true
				count++
			}
		}
	}
	return count
}

// Eval evaluates the netlist for the given primary input assignment and
// returns the value of every signal. The input slice must match
// len(Inputs()).
func (n *Netlist) Eval(inputs []bool) []bool {
	if len(inputs) != len(n.inputs) {
		panic(fmt.Sprintf("circuit: Eval got %d inputs, want %d", len(inputs), len(n.inputs)))
	}
	vals := make([]bool, len(n.drivers))
	n.EvalInto(inputs, vals)
	return vals
}

// EvalInto is Eval reusing a caller-provided value slice of length
// NumSignals, avoiding per-vector allocation in stress loops.
func (n *Netlist) EvalInto(inputs []bool, vals []bool) {
	if len(vals) != len(n.drivers) {
		panic("circuit: EvalInto value slice has wrong length")
	}
	inIdx := 0
	for gi := range n.gates {
		g := &n.gates[gi]
		var v bool
		switch g.Kind {
		case KindInput:
			v = inputs[inIdx]
			inIdx++
		case KindConst:
			v = g.Const
		case KindINV:
			v = !vals[g.In[0]]
		case KindBUF:
			v = vals[g.In[0]]
		case KindNAND2:
			v = !(vals[g.In[0]] && vals[g.In[1]])
		case KindNOR2:
			v = !(vals[g.In[0]] || vals[g.In[1]])
		case KindAND2:
			v = vals[g.In[0]] && vals[g.In[1]]
		case KindOR2:
			v = vals[g.In[0]] || vals[g.In[1]]
		case KindXOR2:
			v = vals[g.In[0]] != vals[g.In[1]]
		case KindXNOR2:
			v = vals[g.In[0]] == vals[g.In[1]]
		case KindMUX2:
			if vals[g.In[0]] {
				v = vals[g.In[2]]
			} else {
				v = vals[g.In[1]]
			}
		case KindXOR3:
			v = vals[g.In[0]] != vals[g.In[1]] != vals[g.In[2]]
		default:
			panic(fmt.Sprintf("circuit: unknown gate kind %v", g.Kind))
		}
		vals[g.Out] = v
	}
}

package circuit

import "fmt"

// opCode is the compiled form of a gate Kind. Const gates split into two
// codes so the evaluator never consults Gate.Const, and every other code
// maps 1:1 onto a bitwise expression over 64-lane words.
type opCode uint8

const (
	opInput opCode = iota
	opConst0
	opConst1
	opINV
	opBUF
	opNAND2
	opNOR2
	opAND2
	opOR2
	opXOR2
	opXNOR2
	opMUX2
	opXOR3
)

// vecOp is one gate of a compiled netlist: an op code, up to three input
// signal indices (a doubles as the primary-input index for opInput) and
// the driven signal index.
type vecOp struct {
	code    opCode
	a, b, c int32
	out     int32
}

// Program is a netlist compiled into a flat topological op array for
// bit-parallel evaluation: every signal holds a 64-bit word whose bit l
// is the signal's value in lane l, so one pass over the ops evaluates 64
// independent input vectors with bitwise instructions.
//
// A Program is immutable and safe for concurrent use with per-caller
// value buffers. Compile after the netlist is fully built; gates added
// later are not reflected.
type Program struct {
	ops       []vecOp
	numInputs int
	numSignal int
}

// Compile flattens the netlist into a vector-evaluation program.
func (n *Netlist) Compile() *Program {
	p := &Program{
		ops:       make([]vecOp, 0, len(n.gates)),
		numInputs: len(n.inputs),
		numSignal: len(n.drivers),
	}
	inIdx := int32(0)
	for _, g := range n.gates {
		op := vecOp{out: int32(g.Out)}
		switch g.Kind {
		case KindInput:
			op.code = opInput
			op.a = inIdx
			inIdx++
		case KindConst:
			if g.Const {
				op.code = opConst1
			} else {
				op.code = opConst0
			}
		case KindINV:
			op.code, op.a = opINV, int32(g.In[0])
		case KindBUF:
			op.code, op.a = opBUF, int32(g.In[0])
		case KindNAND2:
			op.code, op.a, op.b = opNAND2, int32(g.In[0]), int32(g.In[1])
		case KindNOR2:
			op.code, op.a, op.b = opNOR2, int32(g.In[0]), int32(g.In[1])
		case KindAND2:
			op.code, op.a, op.b = opAND2, int32(g.In[0]), int32(g.In[1])
		case KindOR2:
			op.code, op.a, op.b = opOR2, int32(g.In[0]), int32(g.In[1])
		case KindXOR2:
			op.code, op.a, op.b = opXOR2, int32(g.In[0]), int32(g.In[1])
		case KindXNOR2:
			op.code, op.a, op.b = opXNOR2, int32(g.In[0]), int32(g.In[1])
		case KindMUX2:
			op.code, op.a, op.b, op.c = opMUX2, int32(g.In[0]), int32(g.In[1]), int32(g.In[2])
		case KindXOR3:
			op.code, op.a, op.b, op.c = opXOR3, int32(g.In[0]), int32(g.In[1]), int32(g.In[2])
		default:
			panic(fmt.Sprintf("circuit: cannot compile gate kind %v", g.Kind))
		}
		p.ops = append(p.ops, op)
	}
	return p
}

// NumInputs returns the number of primary inputs the program expects.
func (p *Program) NumInputs() int { return p.numInputs }

// NumSignals returns the number of signal words EvalVecInto fills.
func (p *Program) NumSignals() int { return p.numSignal }

// EvalVec evaluates up to 64 input vectors in one pass. inputs holds one
// word per primary input; bit l of each word is that input's value in
// lane l. The returned slice holds one word per signal. Lanes beyond the
// ones the caller packed compute garbage and must be masked off by the
// consumer.
func (p *Program) EvalVec(inputs []uint64) []uint64 {
	vals := make([]uint64, p.numSignal)
	p.EvalVecInto(inputs, vals)
	return vals
}

// EvalVecInto is EvalVec reusing a caller-provided word slice of length
// NumSignals, avoiding per-call allocation in stress loops.
func (p *Program) EvalVecInto(inputs []uint64, vals []uint64) {
	if len(inputs) != p.numInputs {
		panic(fmt.Sprintf("circuit: EvalVec got %d input words, want %d", len(inputs), p.numInputs))
	}
	if len(vals) != p.numSignal {
		panic("circuit: EvalVecInto value slice has wrong length")
	}
	for i := range p.ops {
		op := &p.ops[i]
		var v uint64
		switch op.code {
		case opInput:
			v = inputs[op.a]
		case opConst0:
			v = 0
		case opConst1:
			v = ^uint64(0)
		case opINV:
			v = ^vals[op.a]
		case opBUF:
			v = vals[op.a]
		case opNAND2:
			v = ^(vals[op.a] & vals[op.b])
		case opNOR2:
			v = ^(vals[op.a] | vals[op.b])
		case opAND2:
			v = vals[op.a] & vals[op.b]
		case opOR2:
			v = vals[op.a] | vals[op.b]
		case opXOR2:
			v = vals[op.a] ^ vals[op.b]
		case opXNOR2:
			v = ^(vals[op.a] ^ vals[op.b])
		case opMUX2:
			sel := vals[op.a]
			v = (^sel & vals[op.b]) | (sel & vals[op.c])
		case opXOR3:
			v = vals[op.a] ^ vals[op.b] ^ vals[op.c]
		}
		vals[op.out] = v
	}
}

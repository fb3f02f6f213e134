// Package trace models IA32-style uop traces and synthesizes the
// 531-trace workload of paper Table 1.
//
// The original evaluation used proprietary traces of 10M consecutive IA32
// instructions from ten benchmark suites. Those traces are not available,
// so this package generates deterministic synthetic streams whose
// first-order statistics — instruction mix, operand value bias, branch
// behaviour, memory locality and working-set size — are controlled per
// suite. The Penelope mechanisms only consume those statistics (occupancy,
// idle time, per-bit value bias, cache reuse), which is what makes the
// substitution sound; see DESIGN.md §2.
//
// Traces are streams: NewTrace returns a generator that yields uops one
// at a time and can be Reset and replayed, always producing the same
// sequence for the same (suite, index) pair. Synthesis runs once per
// stream in the common case: Record packs a generated trace into an
// immutable Recording (51 B/uop), Cursor replays it with zero
// allocation, and Bank records the Table 1 workload for every
// configuration sweep to share — see record.go and bank.go.
package trace

import (
	"fmt"
	"math/rand"
)

// Class categorizes a uop by execution resource.
type Class int

// Uop classes. Loads and stores occupy the memory ports; ALU and Mul the
// integer ports; FPAdd/FPMul the FP port.
const (
	ClassALU Class = iota
	ClassMul
	ClassLoad
	ClassStore
	ClassBranch
	ClassFPAdd
	ClassFPMul
	numClasses
)

var classNames = [...]string{"alu", "mul", "load", "store", "branch", "fpadd", "fpmul"}

// String returns the lower-case class name.
func (c Class) String() string {
	if c >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Latency returns the static execution latency of the class in cycles,
// which also populates the scheduler's 5-bit latency field (Table 2).
func (c Class) Latency() int {
	switch c {
	case ClassALU, ClassBranch:
		return 1
	case ClassMul:
		return 3
	case ClassLoad:
		return 3
	case ClassStore:
		return 1
	case ClassFPAdd:
		return 4
	case ClassFPMul:
		return 5
	default:
		return 1
	}
}

// IsMem reports whether the class accesses memory.
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// IsFP reports whether the class executes on the FP stack.
func (c Class) IsFP() bool { return c == ClassFPAdd || c == ClassFPMul }

// NumIssuePorts is the number of issue ports Class.Port maps onto: every
// port index lies in [0, NumIssuePorts), so a core needs at least this
// many.
const NumIssuePorts = 5

// Port returns the issue-port index (0..NumIssuePorts-1) the class uses,
// matching the 5-bit one-hot port field of the scheduler (Table 2).
func (c Class) Port() int {
	switch c {
	case ClassALU:
		return 0
	case ClassBranch:
		return 1
	case ClassLoad:
		return 2
	case ClassStore:
		return 3
	default: // Mul, FP
		return NumIssuePorts - 1
	}
}

// NumIntRegs and NumFPRegs are the architectural register counts of the
// modelled ISA (IA32 integer registers plus x87 stack).
const (
	NumIntRegs = 16
	NumFPRegs  = 8
)

// Uop is one micro-operation of a trace, carrying the values the NBTI
// studies need (operand data, immediates, addresses, flags).
type Uop struct {
	Class Class

	// Registers: architectural indices, -1 if unused. FP uops address
	// the FP register space.
	Dst, Src1, Src2 int

	// Operand values as read (32-bit for integer, 80-bit patterns for FP
	// stored in Val1Hi/Val1 style packing — FP uses Val*.Lo64 plus 16
	// extension bits).
	SrcVal1, SrcVal2 uint64
	SrcExt1, SrcExt2 uint16 // upper 16 bits of 80-bit FP patterns
	DstVal           uint64
	DstExt           uint16

	Imm    uint64 // immediate operand value (16-bit significant)
	HasImm bool

	Addr uint64 // byte address for loads/stores

	Taken       bool  // branch outcome
	Mispredict  bool  // branch was mispredicted (drains the front end)
	FetchBubble uint8 // front-end stall cycles before this uop (I-cache miss)

	Flags  uint8 // 6-bit flags result (ZF, SF, CF, OF, PF, AF)
	Shift1 bool  // source 1 needs AH/BH/CH/DH shift
	Shift2 bool
	MOBid  int    // memory order buffer slot, loads/stores only
	TOS    int    // FP top-of-stack at this uop
	Opcode uint16 // 12-bit opcode encoding
}

// Flag bit positions within Uop.Flags.
const (
	FlagZF = 1 << iota
	FlagSF
	FlagCF
	FlagOF
	FlagPF
	FlagAF
)

// Trace is a deterministic uop stream.
type Trace struct {
	SuiteID SuiteID
	Index   int // index within the suite
	Length  int // uops per replay

	profile Profile
	seed    int64
	rng     *rand.Rand
	pos     int
	scratch Uop // NextUop view buffer

	// generator state
	intRegs  [NumIntRegs]uint64
	fpRegs   [NumFPRegs]uint64
	fpExts   [NumFPRegs]uint16
	tos      int
	mob      int
	lastDst  [32]int // ring of the latest integer destinations, for dependency distance
	nDst     int     // destinations held in lastDst
	dstHead  int     // lastDst slot of the next destination
	curPos   uint64
	lastAddr uint64
	hot      []uint64
	cold     []uint64
}

// NewTrace builds the deterministic trace idx of the given suite with the
// given replay length in uops. Length must be positive; idx must be
// within the suite's trace count.
func NewTrace(id SuiteID, idx, length int) *Trace {
	s := SuiteByID(id)
	if idx < 0 || idx >= s.Count {
		panic(fmt.Sprintf("trace: suite %s has %d traces, index %d invalid", s.Name, s.Count, idx))
	}
	if length <= 0 {
		panic("trace: length must be positive")
	}
	seed := int64(id)*100003 + int64(idx)*7919 + 12345
	t := &Trace{
		SuiteID: id,
		Index:   idx,
		Length:  length,
		profile: jitter(s.Profile, rand.New(rand.NewSource(seed^0x5EED))),
		seed:    seed,
	}
	t.Reset()
	return t
}

// Name identifies the trace, e.g. "server/12".
func (t *Trace) Name() string { return fmt.Sprintf("%s/%d", SuiteByID(t.SuiteID).Name, t.Index) }

// Clone returns an independent trace producing the identical uop
// sequence. Traces are stateful streams, so concurrent consumers (e.g.
// pipeline.RunBatch workers) each need their own instance.
func (t *Trace) Clone() *Trace { return NewTrace(t.SuiteID, t.Index, t.Length) }

// Reset rewinds the trace to its first uop; replays are identical.
func (t *Trace) Reset() {
	t.rng = rand.New(rand.NewSource(t.seed))
	t.pos = 0
	t.tos = 0
	t.mob = 0
	t.nDst, t.dstHead = 0, 0
	for i := range t.intRegs {
		t.intRegs[i] = 0
	}
	for i := range t.fpRegs {
		t.fpRegs[i] = 0
		t.fpExts[i] = 0
	}
	p := t.profile
	// Working set: a hot subset receives most accesses, the cold rest
	// the remainder; a streaming pointer models sequential kernels.
	hotLines := p.WorkingSetLines / 8
	if hotLines < 4 {
		hotLines = 4
	}
	t.hot = t.hot[:0]
	t.cold = t.cold[:0]
	base := uint64(0x10000000) + uint64(t.Index)<<20
	for i := 0; i < hotLines; i++ {
		t.hot = append(t.hot, base+uint64(i)*64)
	}
	spread := p.PageSpread
	if spread < 1 {
		spread = 1
	}
	// Cold lines are scattered inside their spread window rather than
	// laid out at a fixed stride: a regular stride would alias into a
	// fraction of the cache sets and fabricate conflict misses.
	for i := 0; i < p.WorkingSetLines; i++ {
		slot := i*spread + t.rng.Intn(spread)
		t.cold = append(t.cold, base+0x100000+uint64(slot)*64)
	}
	t.curPos = base + 0x200000
	t.lastAddr = t.hot[0]
}

// NextUop synthesizes the next uop into an internal scratch buffer and
// returns a view of it, satisfying Source. The view is valid until the
// next NextUop or Reset call.
func (t *Trace) NextUop() (*Uop, bool) {
	if t.pos >= t.Length {
		return nil, false
	}
	t.pos++
	t.generate(&t.scratch)
	return &t.scratch, true
}

// Len returns the replay length in uops, satisfying Source.
func (t *Trace) Len() int { return t.Length }

// Fork returns an independent generator over the identical stream,
// satisfying Source. Safe to call concurrently: it reads only the
// immutable identity fields.
func (t *Trace) Fork() Source { return t.Clone() }

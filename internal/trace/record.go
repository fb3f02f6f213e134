package trace

import "fmt"

// Source is a replayable uop stream: the common face of the synthesizing
// generator (*Trace) and the packed recording replayer (*Cursor). The
// pipeline and the experiment drivers consume Sources, so a workload can
// be synthesized once and replayed from a Recording for every subsequent
// configuration sweep.
type Source interface {
	// Name identifies the stream, e.g. "server/12".
	Name() string
	// Len is the number of uops one full replay yields.
	Len() int
	// Reset rewinds to the first uop; replays are identical.
	Reset()
	// NextUop returns a view of the next uop and true, or nil and false
	// at end of stream. The view is only valid until the next NextUop or
	// Reset call and must not be mutated or retained.
	NextUop() (*Uop, bool)
	// Fork returns an independent Source producing the identical stream,
	// for concurrent consumers. Fork is safe to call concurrently.
	Fork() Source
}

// Statically assert both implementations.
var (
	_ Source = (*Trace)(nil)
	_ Source = (*Cursor)(nil)
)

// Packed boolean flags of a recorded uop.
const (
	recHasImm = 1 << iota
	recTaken
	recMispredict
	recShift1
	recShift2
)

// Recording is a trace captured once into a packed structure-of-arrays
// buffer: ~51 bytes per uop instead of the ~136-byte Uop struct, with
// the narrow fields stored at their architectural widths (16-bit
// immediates, byte-sized register indices, TOS and MOB ids, booleans
// folded into one flag byte). A Recording is immutable after Record
// returns; any number of Cursors may replay it concurrently.
type Recording struct {
	name   string
	length int

	class  []uint8
	dst    []int8
	src1   []int8
	src2   []int8
	sv1    []uint64
	sv2    []uint64
	dv     []uint64
	se1    []uint16
	se2    []uint16
	de     []uint16
	imm    []uint16
	addr   []uint64
	bubble []uint8
	flags  []uint8
	bools  []uint8
	mob    []uint8
	tos    []uint8
	opcode []uint16
}

// Record synthesizes the deterministic trace (id, idx, length) once and
// returns its packed recording. The generator remains the oracle: a
// Cursor over the result replays the bit-identical uop sequence.
func Record(id SuiteID, idx, length int) *Recording {
	t := NewTrace(id, idx, length)
	r := newRecording(t.Name(), length)
	for u, ok := t.NextUop(); ok; u, ok = t.NextUop() {
		r.append(u)
	}
	return r
}

func newRecording(name string, length int) *Recording {
	return &Recording{
		name:   name,
		class:  make([]uint8, 0, length),
		dst:    make([]int8, 0, length),
		src1:   make([]int8, 0, length),
		src2:   make([]int8, 0, length),
		sv1:    make([]uint64, 0, length),
		sv2:    make([]uint64, 0, length),
		dv:     make([]uint64, 0, length),
		se1:    make([]uint16, 0, length),
		se2:    make([]uint16, 0, length),
		de:     make([]uint16, 0, length),
		imm:    make([]uint16, 0, length),
		addr:   make([]uint64, 0, length),
		bubble: make([]uint8, 0, length),
		flags:  make([]uint8, 0, length),
		bools:  make([]uint8, 0, length),
		mob:    make([]uint8, 0, length),
		tos:    make([]uint8, 0, length),
		opcode: make([]uint16, 0, length),
	}
}

// append packs one uop. The narrow columns hold the fields at their
// architectural widths, so any generator change that overflows them is a
// recording bug — fail loudly rather than truncate.
func (r *Recording) append(u *Uop) {
	checkRange := func(name string, v, lo, hi int) {
		if v < lo || v > hi {
			panic(fmt.Sprintf("trace: recording %s: uop %d field %s = %d outside packed range [%d,%d]",
				r.name, r.length, name, v, lo, hi))
		}
	}
	checkRange("dst", u.Dst, -1, NumIntRegs-1)
	checkRange("src1", u.Src1, -1, NumIntRegs-1)
	checkRange("src2", u.Src2, -1, NumIntRegs-1)
	checkRange("mob", u.MOBid, 0, 63)
	checkRange("tos", u.TOS, 0, NumFPRegs-1)
	if u.Imm >= 1<<16 {
		panic(fmt.Sprintf("trace: recording %s: uop %d immediate %#x exceeds 16 bits", r.name, r.length, u.Imm))
	}

	r.class = append(r.class, uint8(u.Class))
	r.dst = append(r.dst, int8(u.Dst))
	r.src1 = append(r.src1, int8(u.Src1))
	r.src2 = append(r.src2, int8(u.Src2))
	r.sv1 = append(r.sv1, u.SrcVal1)
	r.sv2 = append(r.sv2, u.SrcVal2)
	r.dv = append(r.dv, u.DstVal)
	r.se1 = append(r.se1, u.SrcExt1)
	r.se2 = append(r.se2, u.SrcExt2)
	r.de = append(r.de, u.DstExt)
	r.imm = append(r.imm, uint16(u.Imm))
	r.addr = append(r.addr, u.Addr)
	r.bubble = append(r.bubble, u.FetchBubble)
	r.flags = append(r.flags, u.Flags)
	var b uint8
	if u.HasImm {
		b |= recHasImm
	}
	if u.Taken {
		b |= recTaken
	}
	if u.Mispredict {
		b |= recMispredict
	}
	if u.Shift1 {
		b |= recShift1
	}
	if u.Shift2 {
		b |= recShift2
	}
	r.bools = append(r.bools, b)
	r.mob = append(r.mob, uint8(u.MOBid))
	r.tos = append(r.tos, uint8(u.TOS))
	r.opcode = append(r.opcode, u.Opcode)
	r.length++
}

// uopAt unpacks uop i into u, overwriting every field.
func (r *Recording) uopAt(i int, u *Uop) {
	u.Class = Class(r.class[i])
	u.Dst = int(r.dst[i])
	u.Src1 = int(r.src1[i])
	u.Src2 = int(r.src2[i])
	u.SrcVal1 = r.sv1[i]
	u.SrcVal2 = r.sv2[i]
	u.DstVal = r.dv[i]
	u.SrcExt1 = r.se1[i]
	u.SrcExt2 = r.se2[i]
	u.DstExt = r.de[i]
	u.Imm = uint64(r.imm[i])
	u.Addr = r.addr[i]
	u.FetchBubble = r.bubble[i]
	u.Flags = r.flags[i]
	b := r.bools[i]
	u.HasImm = b&recHasImm != 0
	u.Taken = b&recTaken != 0
	u.Mispredict = b&recMispredict != 0
	u.Shift1 = b&recShift1 != 0
	u.Shift2 = b&recShift2 != 0
	u.MOBid = int(r.mob[i])
	u.TOS = int(r.tos[i])
	u.Opcode = r.opcode[i]
}

// Len returns the number of recorded uops.
func (r *Recording) Len() int { return r.length }

// recordedUopBytes is the packed payload per uop, summed from the
// column element sizes: four uint64 columns (source values, destination
// value, address), five uint16 columns (the three FP extensions, the
// immediate, the opcode) and nine byte columns (class, three register
// indices, fetch bubble, flags, folded booleans, MOB id, TOS). Keep it
// in sync with the Recording columns.
const recordedUopBytes = 4*8 + 5*2 + 9*1

// Bytes returns the packed payload size of the recording, for memory
// budgeting (slice headers excluded).
func (r *Recording) Bytes() int { return r.length * recordedUopBytes }

// Prefix returns the recording of the same trace at length n ≤ Len():
// a view that shares every column with r, one slice header each, and
// copies no uop. Generation depends on the trace's length only where it
// stops, so the view deep-equals Record of the same trace at n. At
// n == Len() it is r itself.
func (r *Recording) Prefix(n int) *Recording {
	if n < 0 || n > r.length {
		panic(fmt.Sprintf("trace: prefix %d of recording %s of %d uops", n, r.name, r.length))
	}
	if n == r.length {
		return r
	}
	return &Recording{
		name: r.name, length: n,
		class:  r.class[:n:n],
		dst:    r.dst[:n:n],
		src1:   r.src1[:n:n],
		src2:   r.src2[:n:n],
		sv1:    r.sv1[:n:n],
		sv2:    r.sv2[:n:n],
		dv:     r.dv[:n:n],
		se1:    r.se1[:n:n],
		se2:    r.se2[:n:n],
		de:     r.de[:n:n],
		imm:    r.imm[:n:n],
		addr:   r.addr[:n:n],
		bubble: r.bubble[:n:n],
		flags:  r.flags[:n:n],
		bools:  r.bools[:n:n],
		mob:    r.mob[:n:n],
		tos:    r.tos[:n:n],
		opcode: r.opcode[:n:n],
	}
}

// Cursor returns a fresh replayer positioned at the first uop.
func (r *Recording) Cursor() *Cursor { return &Cursor{rec: r} }

// Cursor replays a Recording with zero per-uop allocation: NextUop
// unpacks into an internal scratch Uop and hands out a view of it.
// A Cursor is single-consumer; concurrent readers each Fork their own.
type Cursor struct {
	rec *Recording
	pos int
	u   Uop
}

// Name identifies the underlying recording.
func (c *Cursor) Name() string { return c.rec.name }

// Len returns the recorded uop count.
func (c *Cursor) Len() int { return c.rec.length }

// Reset rewinds the cursor to the first uop.
func (c *Cursor) Reset() { c.pos = 0 }

// NextUop returns a view of the next uop, valid until the next NextUop
// or Reset call.
func (c *Cursor) NextUop() (*Uop, bool) {
	if c.pos >= c.rec.length {
		return nil, false
	}
	c.rec.uopAt(c.pos, &c.u)
	c.pos++
	return &c.u, true
}

// Fork returns a fresh cursor over the same shared recording.
func (c *Cursor) Fork() Source { return c.rec.Cursor() }

// Sources adapts a slice of generator traces to the Source interface.
func Sources(traces []*Trace) []Source {
	out := make([]Source, len(traces))
	for i, t := range traces {
		out[i] = t
	}
	return out
}

package trace

// generate synthesizes the next uop according to the suite profile.
func (t *Trace) generate(u *Uop) {
	p := &t.profile
	r := t.rng.Float64()
	var class Class
	switch {
	case r < p.LoadFrac:
		class = ClassLoad
	case r < p.LoadFrac+p.StoreFrac:
		class = ClassStore
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		class = ClassBranch
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac:
		if t.rng.Float64() < 0.5 {
			class = ClassFPAdd
		} else {
			class = ClassFPMul
		}
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac+p.MulFrac:
		class = ClassMul
	default:
		class = ClassALU
	}

	// Zeroed and then set field by field: assigning a composite literal
	// through the pointer would build it on the stack and copy it.
	*u = Uop{}
	u.Class, u.Dst, u.Src1, u.Src2, u.TOS = class, -1, -1, -1, t.tos
	u.Opcode = t.opcode(class)
	if t.rng.Float64() < p.ICacheMissFrac {
		u.FetchBubble = uint8(6 + t.rng.Intn(10))
	}
	// Every uop latches the current MOB allocation pointer; memory uops
	// advance it. Slots are therefore used evenly over time, which is
	// what makes the scheduler's MOB id field self-balanced (§4.5).
	u.MOBid = t.mob

	if class.IsFP() {
		t.genFP(u)
		return
	}

	// Integer sources: bias towards recently written registers with the
	// profile's dependency distance, mimicking real ILP.
	u.Src1 = t.pickSrc()
	u.SrcVal1 = t.intRegs[u.Src1]
	if class != ClassLoad { // loads take one register + displacement
		u.Src2 = t.pickSrc()
		u.SrcVal2 = t.intRegs[u.Src2]
	}
	if t.rng.Float64() < p.ImmFrac {
		u.HasImm = true
		u.Imm = t.immediate()
		u.Src2 = -1
		u.SrcVal2 = 0
	}
	// Partial-register shifts (AH/BH/CH/DH accesses) are rare.
	u.Shift1 = t.rng.Float64() < p.PartialRegFrac
	u.Shift2 = t.rng.Float64() < p.PartialRegFrac

	switch class {
	case ClassLoad:
		u.Addr = t.address()
		u.Dst = t.pickDst()
		u.DstVal = t.value() // loaded value from the modelled data stream
		t.writeInt(u.Dst, u.DstVal)
		u.MOBid = t.nextMOB()
	case ClassStore:
		u.Addr = t.address()
		u.MOBid = t.nextMOB()
	case ClassBranch:
		u.Taken = t.rng.Float64() < p.BranchTaken
		u.Mispredict = t.rng.Float64() < p.MispredictFrac
		u.Flags = t.flags(u.SrcVal1)
	case ClassALU, ClassMul:
		u.Dst = t.pickDst()
		u.DstVal = t.combine(u.SrcVal1, u.SrcVal2, u.Imm, u.HasImm, class)
		t.writeInt(u.Dst, u.DstVal)
		u.Flags = t.flags(u.DstVal)
	}
}

// genFP fills in an FP uop: x87-style stack operands with 80-bit
// extended-precision bit patterns.
func (t *Trace) genFP(u *Uop) {
	u.Src1 = t.tos
	u.Src2 = (t.tos + 1 + t.rng.Intn(3)) % NumFPRegs
	u.SrcVal1, u.SrcExt1 = t.fpRegs[u.Src1], t.fpExts[u.Src1]
	u.SrcVal2, u.SrcExt2 = t.fpRegs[u.Src2], t.fpExts[u.Src2]
	u.Dst = t.tos
	lo, hi := t.fpValue()
	u.DstVal, u.DstExt = lo, hi
	t.fpRegs[u.Dst], t.fpExts[u.Dst] = lo, hi
	if t.rng.Float64() < 0.3 { // stack push/pop activity
		t.tos = (t.tos + 1) % NumFPRegs
	}
	u.TOS = t.tos
}

// pickSrc chooses a source register: geometrically distributed over the
// most recent destinations (dependency distance), falling back to a
// uniform pick.
func (t *Trace) pickSrc() int {
	if t.nDst > 0 && t.rng.Float64() < 0.7 {
		d := t.rng.Intn(t.profile.DepDistance)
		if d < t.nDst {
			return t.lastDst[(t.dstHead+len(t.lastDst)-1-d)%len(t.lastDst)]
		}
	}
	return t.rng.Intn(NumIntRegs)
}

// pickDst chooses a destination register and records it for dependency
// tracking, in place of the oldest once the ring is full.
func (t *Trace) pickDst() int {
	d := t.rng.Intn(NumIntRegs)
	t.lastDst[t.dstHead] = d
	t.dstHead = (t.dstHead + 1) % len(t.lastDst)
	if t.nDst < len(t.lastDst) {
		t.nDst++
	}
	return d
}

func (t *Trace) writeInt(reg int, v uint64) { t.intRegs[reg] = v }

// value draws an integer data value from the suite's biased mixture:
// exact zeros, small constants, sign-extended negatives, pointers and
// uniform residue. The mixture is what produces the 65–90% per-bit zero
// bias of §1.1 / Figure 6.
func (t *Trace) value() uint64 {
	p := &t.profile
	r := t.rng.Float64()
	switch {
	case r < p.ZeroValFrac:
		return 0
	case r < p.ZeroValFrac+p.SmallValFrac:
		return uint64(t.rng.Intn(256))
	case r < p.ZeroValFrac+p.SmallValFrac+p.NegValFrac:
		// Small negative number: two's complement, high bits all ones.
		return uint64(uint32(-int32(t.rng.Intn(256) + 1)))
	case r < p.ZeroValFrac+p.SmallValFrac+p.NegValFrac+p.AddrValFrac:
		// Pointer-like: inside the working set's address range.
		return t.address()
	default:
		return uint64(t.rng.Uint32())
	}
}

// combine produces an ALU result value. Rather than emulating IA32
// semantics, it mixes the operand magnitudes so results inherit the
// value-bias structure of their inputs.
func (t *Trace) combine(a, b, imm uint64, hasImm bool, class Class) uint64 {
	if hasImm {
		b = imm
	}
	switch class {
	case ClassMul:
		return uint64(uint32(a) * uint32(b))
	default:
		switch t.rng.Intn(4) {
		case 0:
			return uint64(uint32(a) + uint32(b))
		case 1:
			return uint64(uint32(a) - uint32(b))
		case 2:
			return a & b
		default:
			return t.value() // mov/load-immediate style overwrite
		}
	}
}

// fpValue draws an 80-bit extended-precision pattern (lo 64 bits =
// mantissa, hi 16 bits = sign+exponent). Values cluster around small
// magnitudes: exponents near the bias, mantissas with trailing zeros —
// giving FP register bits the strong bias of Figure 6.
func (t *Trace) fpValue() (lo uint64, hi uint16) {
	r := t.rng.Float64()
	switch {
	case r < t.profile.ZeroValFrac:
		return 0, 0 // +0.0
	case r < t.profile.ZeroValFrac+0.3:
		// Small integral constant like 1.0, 2.0, 10.0: exponent near
		// bias 16383, mantissa mostly zeros after the leading 1.
		exp := uint16(16383 + t.rng.Intn(8))
		mant := uint64(1)<<63 | uint64(t.rng.Intn(16))<<59
		return mant, exp
	case r < t.profile.ZeroValFrac+0.6:
		// Computed value: exponent in a narrow band, random mantissa
		// high bits, trailing zeros common.
		exp := uint16(16383 - 10 + t.rng.Intn(21))
		mant := uint64(1)<<63 | (t.rng.Uint64() >> uint(1+t.rng.Intn(24)))
		return mant, exp
	default:
		sign := uint16(0)
		if t.rng.Float64() < 0.3 {
			sign = 1 << 15
		}
		exp := uint16(16383-100+t.rng.Intn(201)) | sign
		return uint64(1)<<63 | t.rng.Uint64()>>1, exp
	}
}

// immediate draws a 16-bit immediate: mostly tiny constants.
func (t *Trace) immediate() uint64 {
	r := t.rng.Float64()
	switch {
	case r < 0.4:
		return uint64(t.rng.Intn(8))
	case r < 0.8:
		return uint64(t.rng.Intn(256))
	default:
		return uint64(t.rng.Intn(1 << 16))
	}
}

// address draws a memory address: a temporal burst on the last-touched
// line, a sequential stream step, hot-set reuse or a cold-set spill, per
// the profile's locality knobs. Bursts model same-line field and spill
// accesses and are what puts ~90% of DL0 hits at the MRU position
// (§3.2.1).
func (t *Trace) address() uint64 {
	p := &t.profile
	r := t.rng.Float64()
	var addr uint64
	switch {
	case r < p.BurstFrac:
		addr = t.lastAddr&^63 + uint64(t.rng.Intn(64))&^3
	case r < p.BurstFrac+p.StreamFrac:
		// Streams walk words, crossing into a new line every few
		// accesses rather than every access.
		t.curPos += uint64(4 + 4*t.rng.Intn(4))
		addr = t.curPos
	case r < p.BurstFrac+p.StreamFrac+p.HotFrac:
		addr = t.hot[t.rng.Intn(len(t.hot))] + uint64(t.rng.Intn(64))&^3
	default:
		addr = t.cold[t.rng.Intn(len(t.cold))] + uint64(t.rng.Intn(64))&^3
	}
	t.lastAddr = addr
	return addr
}

// flags computes the 6-bit flags field from a result value. Real flags
// are mostly zero (results are rarely zero, rarely negative), which is
// the near-100% bias §4.5 reports.
func (t *Trace) flags(v uint64) uint8 {
	var f uint8
	if uint32(v) == 0 {
		f |= FlagZF
	}
	if int32(v) < 0 {
		f |= FlagSF
	}
	// Carry/overflow/parity/aux: rare events synthesized directly.
	if t.rng.Float64() < 0.05 {
		f |= FlagCF
	}
	if t.rng.Float64() < 0.01 {
		f |= FlagOF
	}
	if popcount8(uint8(v))%2 == 0 && t.rng.Float64() < 0.2 {
		f |= FlagPF
	}
	if t.rng.Float64() < 0.02 {
		f |= FlagAF
	}
	return f
}

// nextMOB allocates the next memory-order-buffer slot, wrapping at 64
// (the 6-bit MOB id field of Table 2). Slots are used round-robin, which
// is why the field is self-balanced (§4.5).
func (t *Trace) nextMOB() int {
	id := t.mob
	t.mob = (t.mob + 1) % 64
	return id
}

// opcode returns a 12-bit encoding for the class. The encoding is the
// "smartly chosen" one of §4.5: class base patterns are complementary so
// no opcode bit is persistently biased.
func (t *Trace) opcode(c Class) uint16 {
	base := [numClasses]uint16{
		0x555, 0x2AA, 0x333, 0xCCC, 0x0F0, 0xF0F, 0x3C3,
	}[c]
	// Low two bits distinguish variants within the class.
	return (base &^ 3) | uint16(t.rng.Intn(4))
}

func popcount8(b uint8) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

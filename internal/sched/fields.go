// Package sched models the out-of-order scheduler (reservation stations)
// of paper §4.5 with the field layout of Table 2, and applies the
// per-field NBTI techniques chosen by the Figure 3 casuistic: ALL1 for
// near-constant control bits, ALL1-K%/ALL0-K% for moderately biased
// bits, ISV for the wide data fields, nothing for self-balanced tags and
// the unprotectable valid bit.
package sched

import "fmt"

// FieldID identifies a scheduler field (Table 2).
type FieldID int

// The fields of Table 2, in layout order.
const (
	FieldValid FieldID = iota
	FieldLatency
	FieldPort
	FieldTaken
	FieldMOBid
	FieldTOS
	FieldFlags
	FieldShift1
	FieldShift2
	FieldDSTTag
	FieldSRC1Tag
	FieldSRC2Tag
	FieldReady1
	FieldReady2
	FieldSRC1Data
	FieldSRC2Data
	FieldImm
	FieldOpcode
	NumFields
)

// FieldSpec describes one scheduler field.
type FieldSpec struct {
	ID          FieldID
	Name        string
	Bits        int
	Description string
	// DataField marks fields that are released at issue time rather
	// than at entry deallocation (SRC data and immediate: "available
	// 70-75% of the time on average because they remain unused beyond
	// the allocation", §4.5).
	DataField bool
	// Plot reports whether the field appears in Figure 8 (opcode is
	// excluded: "Opcode bits are not shown").
	Plot bool
}

var fieldSpecs = [NumFields]FieldSpec{
	{FieldValid, "valid", 1, "Slot is valid", false, true},
	{FieldLatency, "latency", 5, "Latency of the uop", false, true},
	{FieldPort, "port", 5, "Port for issue (loads and stores are not in the scheduler)", false, true},
	{FieldTaken, "taken", 1, "The branch is taken", false, true},
	{FieldMOBid, "MOB id", 6, "Memory Order Buffer identifier", false, true},
	{FieldTOS, "tos", 3, "Top of stack position for FPs", false, true},
	{FieldFlags, "flags", 6, "Flags for the uop", false, true},
	{FieldShift1, "shift1", 1, "Source 1 must be shifted (AH, BH, CH and DH)", false, true},
	{FieldShift2, "shift2", 1, "Source 2 must be shifted (AH, BH, CH and DH)", false, true},
	{FieldDSTTag, "DST tag", 7, "Destination register", false, true},
	{FieldSRC1Tag, "SRC1 tag", 7, "Source 1 register", false, true},
	{FieldSRC2Tag, "SRC2 tag", 7, "Source 2 register", false, true},
	{FieldReady1, "ready1", 1, "Source 1 is ready for issue", false, true},
	{FieldReady2, "ready2", 1, "Source 2 is ready for issue", false, true},
	{FieldSRC1Data, "SRC1 data", 32, "Source 1 data for data capture schedulers", true, true},
	{FieldSRC2Data, "SRC2 data", 32, "Source 2 data for data capture schedulers", true, true},
	{FieldImm, "immediate", 16, "Immediate data field", true, true},
	{FieldOpcode, "opcode", 12, "Opcode for the uop. Not shown in Figure 8", false, false},
}

// Specs returns the Table 2 field layout. The slice is shared; callers
// must not modify it.
func Specs() []FieldSpec { return fieldSpecs[:] }

// Spec returns the descriptor of one field.
func Spec(id FieldID) FieldSpec {
	if id < 0 || id >= NumFields {
		panic(fmt.Sprintf("sched: unknown field %d", id))
	}
	return fieldSpecs[id]
}

// TotalBits returns the bits per scheduler entry (sum of Table 2).
func TotalBits() int {
	n := 0
	for _, f := range fieldSpecs {
		n += f.Bits
	}
	return n
}

// String returns the field name.
func (id FieldID) String() string {
	if id < 0 || id >= NumFields {
		return fmt.Sprintf("field(%d)", int(id))
	}
	return fieldSpecs[id].Name
}

// Dispatch carries the raw field values of a uop entering the scheduler.
// The pipeline fills it from a trace uop plus rename state.
type Dispatch struct {
	Latency  int
	Port     int // issue port index, stored one-hot in the port field
	Taken    bool
	MOBid    int
	TOS      int
	Flags    uint8
	Shift1   bool
	Shift2   bool
	DstTag   int
	Src1Tag  int
	Src2Tag  int
	Ready1   bool
	Ready2   bool
	Src1Data uint64
	Src2Data uint64
	Imm      uint64
	HasImm   bool
	HasDst   bool
	HasSrc1  bool
	HasSrc2  bool
	MemUop   bool
	Opcode   uint16
}

// fieldMask is the set of every field, one bit per FieldID.
const fieldMask = 1<<NumFields - 1

// fields extracts the stored bit pattern of every field from a dispatch,
// plus the set of fields the uop writes. Conditional fields are only
// written when the uop actually uses them: uncaptured operands arrive
// over the bypass, and uops without an immediate, a MOB slot or a
// register operand leave those cells alone ("they remain unused beyond
// the allocation or are not used at all", §4.5).
func (d *Dispatch) fields() (v [NumFields]uint64, live uint32) {
	v[FieldValid] = 1
	v[FieldLatency] = uint64(d.Latency) & 0x1F
	v[FieldPort] = 1 << uint(d.Port) & 0x1F
	v[FieldTaken] = b2u(d.Taken)
	v[FieldMOBid] = uint64(d.MOBid) & 0x3F
	v[FieldTOS] = uint64(d.TOS) & 0x7
	v[FieldFlags] = uint64(d.Flags) & 0x3F
	v[FieldShift1] = b2u(d.Shift1)
	v[FieldShift2] = b2u(d.Shift2)
	v[FieldDSTTag] = clampTag(d.DstTag)
	v[FieldSRC1Tag] = clampTag(d.Src1Tag)
	v[FieldSRC2Tag] = clampTag(d.Src2Tag)
	v[FieldReady1] = b2u(d.Ready1)
	v[FieldReady2] = b2u(d.Ready2)
	v[FieldSRC1Data] = d.Src1Data & 0xFFFFFFFF
	v[FieldSRC2Data] = d.Src2Data & 0xFFFFFFFF
	v[FieldImm] = d.Imm & 0xFFFF
	v[FieldOpcode] = uint64(d.Opcode) & 0xFFF
	live = fieldMask &^ (1<<FieldSRC1Data | 1<<FieldSRC2Data | 1<<FieldImm |
		1<<FieldMOBid | 1<<FieldDSTTag | 1<<FieldSRC1Tag | 1<<FieldSRC2Tag)
	live |= uint32(b2u(d.Ready1 && d.HasSrc1)) << FieldSRC1Data
	live |= uint32(b2u(d.Ready2 && d.HasSrc2 && !d.HasImm)) << FieldSRC2Data
	live |= uint32(b2u(d.HasImm)) << FieldImm
	live |= uint32(b2u(d.MemUop)) << FieldMOBid
	live |= uint32(b2u(d.HasDst)) << FieldDSTTag
	live |= uint32(b2u(d.HasSrc1)) << FieldSRC1Tag
	live |= uint32(b2u(d.HasSrc2)) << FieldSRC2Tag
	return v, live
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func clampTag(t int) uint64 {
	if t < 0 {
		return 0
	}
	return uint64(t) & 0x7F
}

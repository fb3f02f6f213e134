package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"penelope/internal/mitigation"
)

// refSched is a deliberately naive scheduler accountant, the oracle for
// the optimized one: it steps every cycle and counts, for every bit of
// every cell, whether the bit held "0" while its field was busy-live or
// while it was free. It keeps no value-runs, value tables or dense
// credit, and applies repair plans through a plain per-bit technique
// switch.
type refSched struct {
	cfg   Config
	slots []refSlot
	free  []int // FIFO, like the hardware free list
	cycle uint64

	zeroBusy, zeroFree [NumFields][]uint64 // per bit
	busyTime, freeTime [NumFields]uint64
	entryTime          uint64 // Σ busy slots per cycle
	dataTime           uint64 // Σ slots holding live SRC1 data per cycle

	portCycle          uint64
	portUsed           int
	requests, denied   uint64
	repairs, discarded uint64
	dispatches         uint64

	rinv [NumFields]*mitigation.RINV
	// ISV timestamp clocks per clock group: SRC1 and SRC2 data share
	// one, every other field has its own.
	invTime, cellTime [NumFields]uint64
	duty              map[int]*mitigation.DutyCounter
}

type refSlot struct {
	busy, issued bool
	val          [NumFields]uint64
	live         [NumFields]bool
	inverted     [NumFields]bool
}

func newRefSched(cfg Config) *refSched {
	r := &refSched{cfg: cfg, slots: make([]refSlot, cfg.Entries), duty: map[int]*mitigation.DutyCounter{}}
	for i := range r.slots {
		r.free = append(r.free, i)
	}
	for f := FieldID(0); f < NumFields; f++ {
		r.zeroBusy[f] = make([]uint64, fieldSpecs[f].Bits)
		r.zeroFree[f] = make([]uint64, fieldSpecs[f].Bits)
		r.rinv[f] = mitigation.NewRINV(fieldSpecs[f].Bits, cfg.RINVPeriod)
	}
	return r
}

func clockGroup(f FieldID) FieldID {
	if f == FieldSRC2Data {
		return FieldSRC1Data
	}
	return f
}

// step counts every cycle in [r.cycle, to) under the current state.
func (r *refSched) step(to uint64) {
	for ; r.cycle < to; r.cycle++ {
		for i := range r.slots {
			s := &r.slots[i]
			if s.busy {
				r.entryTime++
				if s.live[FieldSRC1Data] {
					r.dataTime++
				}
			}
			for f := FieldID(0); f < NumFields; f++ {
				g := clockGroup(f)
				r.cellTime[g]++
				if s.inverted[f] {
					r.invTime[g]++
				}
				zero := r.zeroFree[f]
				if s.busy && s.live[f] {
					zero = r.zeroBusy[f]
					r.busyTime[f]++
				} else {
					r.freeTime[f]++
				}
				for b := range zero {
					if s.val[f]>>uint(b)&1 == 0 {
						zero[b]++
					}
				}
			}
		}
	}
}

// takePort applies the allocate-port budget: demand dispatches always
// proceed, repair writes need a leftover port.
func (r *refSched) takePort(cycle uint64, repair bool) bool {
	if cycle != r.portCycle {
		r.portCycle, r.portUsed = cycle, 0
	}
	if r.portUsed >= r.cfg.AllocPorts {
		if repair {
			r.requests++
			r.denied++
			return false
		}
		r.portUsed++
		return true
	}
	r.requests++
	r.portUsed++
	return true
}

// refFields decodes a dispatch into the stored value and liveness of
// every field, written out field by field.
func refFields(d *Dispatch) (val [NumFields]uint64, live [NumFields]bool) {
	b := func(x bool) uint64 {
		if x {
			return 1
		}
		return 0
	}
	tag := func(t int) uint64 {
		if t < 0 {
			return 0
		}
		return uint64(t) % 128
	}
	val[FieldValid] = 1
	val[FieldLatency] = uint64(d.Latency) % 32
	val[FieldPort] = (uint64(1) << uint(d.Port)) % 32
	val[FieldTaken] = b(d.Taken)
	val[FieldMOBid] = uint64(d.MOBid) % 64
	val[FieldTOS] = uint64(d.TOS) % 8
	val[FieldFlags] = uint64(d.Flags) % 64
	val[FieldShift1] = b(d.Shift1)
	val[FieldShift2] = b(d.Shift2)
	val[FieldDSTTag] = tag(d.DstTag)
	val[FieldSRC1Tag] = tag(d.Src1Tag)
	val[FieldSRC2Tag] = tag(d.Src2Tag)
	val[FieldReady1] = b(d.Ready1)
	val[FieldReady2] = b(d.Ready2)
	val[FieldSRC1Data] = d.Src1Data % (1 << 32)
	val[FieldSRC2Data] = d.Src2Data % (1 << 32)
	val[FieldImm] = d.Imm % (1 << 16)
	val[FieldOpcode] = uint64(d.Opcode) % (1 << 12)
	for f := range live {
		live[f] = true
	}
	live[FieldSRC1Data] = d.Ready1 && d.HasSrc1
	live[FieldSRC2Data] = d.Ready2 && d.HasSrc2 && !d.HasImm
	live[FieldImm] = d.HasImm
	live[FieldMOBid] = d.MemUop
	live[FieldDSTTag] = d.HasDst
	live[FieldSRC1Tag] = d.HasSrc1
	live[FieldSRC2Tag] = d.HasSrc2
	return val, live
}

func (r *refSched) Dispatch(d *Dispatch, cycle uint64) (int, bool) {
	r.step(cycle)
	if len(r.free) == 0 {
		return -1, false
	}
	r.takePort(cycle, false)
	slot := r.free[0]
	r.free = r.free[1:]
	s := &r.slots[slot]
	val, live := refFields(d)
	for f := FieldID(0); f < NumFields; f++ {
		s.live[f] = live[f]
		if !live[f] {
			continue
		}
		s.val[f] = val[f]
		s.inverted[f] = false
		r.rinv[f].Offer(val[f], cycle)
	}
	s.busy, s.issued = true, false
	r.dispatches++
	return slot, true
}

func (r *refSched) MarkReady(slot int, src1, src2 bool, cycle uint64) {
	r.step(cycle)
	if src1 {
		r.slots[slot].val[FieldReady1] = 1
	}
	if src2 {
		r.slots[slot].val[FieldReady2] = 1
	}
}

func (r *refSched) Issue(slot int, cycle uint64) {
	r.step(cycle)
	s := &r.slots[slot]
	s.issued = true
	for _, f := range []FieldID{FieldSRC1Data, FieldSRC2Data, FieldImm} {
		s.live[f] = false
	}
	if r.cfg.Plan == nil {
		return
	}
	if !r.takePort(cycle, true) {
		r.discarded++
		return
	}
	for _, f := range []FieldID{FieldSRC1Data, FieldSRC2Data, FieldImm} {
		r.repair(slot, f)
	}
	r.repairs++
}

func (r *refSched) Release(slot int, cycle uint64) {
	r.step(cycle)
	s := &r.slots[slot]
	s.busy = false
	s.live = [NumFields]bool{}
	s.val[FieldValid] = 0
	if r.cfg.Plan != nil {
		if r.takePort(cycle, true) {
			for f := FieldID(0); f < NumFields; f++ {
				if f != FieldValid && !fieldSpecs[f].DataField {
					r.repair(slot, f)
				}
			}
			r.repairs++
		} else {
			r.discarded++
		}
	}
	r.free = append(r.free, slot)
}

// repair writes the plan's repair value into one field, bit by bit.
func (r *refSched) repair(slot int, f FieldID) {
	plans := r.cfg.Plan.Fields[f]
	if len(plans) == 0 {
		return
	}
	s := &r.slots[slot]
	g := clockGroup(f)
	invert := r.invTime[g]*2 <= r.cellTime[g]
	old := s.val[f]
	var v uint64
	hasISV := false
	for bit, bp := range plans {
		m := uint64(1) << uint(bit)
		var one bool
		switch bp.Technique {
		case mitigation.TechALL1:
			one = true
		case mitigation.TechALL0:
			one = false
		case mitigation.TechALL1K:
			one = r.dutyFor(bp.K).Tick()
		case mitigation.TechALL0K:
			one = !r.dutyFor(bp.K).Tick()
		case mitigation.TechISV:
			hasISV = true
			if invert {
				one = r.rinv[f].Value()&m != 0
			} else {
				one = old&m != 0
			}
		default:
			one = old&m != 0
		}
		if one {
			v |= m
		}
	}
	s.val[f] = v
	if invert && hasISV {
		s.inverted[f] = true
	}
}

func (r *refSched) dutyFor(k float64) *mitigation.DutyCounter {
	key := int(k*20 + 0.5)
	c, ok := r.duty[key]
	if !ok {
		c = mitigation.NewDutyCounter(20, float64(key)/20)
		r.duty[key] = c
	}
	return c
}

func (r *refSched) Report(end uint64) Report {
	r.step(end)
	frac := func(num, den uint64, empty float64) float64 {
		if den == 0 {
			return empty
		}
		return float64(num) / float64(den)
	}
	rep := Report{
		Dispatches:       r.dispatches,
		RepairWrites:     r.repairs,
		RepairDiscarded:  r.discarded,
		PortAvailability: 1 - frac(r.denied, r.requests, 0),
	}
	if end > 0 {
		rep.EntryOccupancy = float64(r.entryTime) / float64(end) / float64(r.cfg.Entries)
		rep.DataOccupancy = float64(r.dataTime) / float64(end) / float64(r.cfg.Entries)
	}
	for f := FieldID(0); f < NumFields; f++ {
		spec := fieldSpecs[f]
		total := r.busyTime[f] + r.freeTime[f]
		fr := FieldReport{ID: f, Name: spec.Name, Bits: spec.Bits, WorstBias: 0.5}
		fr.Occupancy = frac(r.busyTime[f], total, 0)
		for b := 0; b < spec.Bits; b++ {
			z := frac(r.zeroBusy[f][b]+r.zeroFree[f][b], total, 0.5)
			fr.Biases = append(fr.Biases, z)
			fr.BusyBias = append(fr.BusyBias, frac(r.zeroBusy[f][b], r.busyTime[f], 0.5))
			if z > fr.WorstBias {
				fr.WorstBias = z
			}
			if 1-z > fr.WorstBias {
				fr.WorstBias = 1 - z
			}
		}
		if r.cfg.Plan != nil {
			fr.Technique = r.cfg.Plan.Technique(f)
		}
		rep.Fields = append(rep.Fields, fr)
	}
	return rep
}

// randomDispatch draws field values from small pools half the time, so
// slots often receive the value they already hold.
func randomDispatch(rng *rand.Rand) Dispatch {
	pick := func(small, full int) int {
		if rng.Intn(2) == 0 {
			return rng.Intn(small)
		}
		return rng.Intn(full)
	}
	word := func(bits uint) uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(4))
		default:
			return rng.Uint64() >> (64 - bits)
		}
	}
	return Dispatch{
		Latency:  pick(3, 40),
		Port:     pick(2, 8),
		Taken:    rng.Intn(4) == 0,
		MOBid:    pick(2, 80),
		TOS:      pick(2, 10),
		Flags:    uint8(pick(2, 256)),
		Shift1:   rng.Intn(8) == 0,
		Shift2:   rng.Intn(8) == 0,
		DstTag:   pick(3, 200) - 1,
		Src1Tag:  pick(3, 200) - 1,
		Src2Tag:  pick(3, 200) - 1,
		Ready1:   rng.Intn(2) == 0,
		Ready2:   rng.Intn(2) == 0,
		Src1Data: word(40),
		Src2Data: word(40),
		Imm:      word(20),
		HasImm:   rng.Intn(3) == 0,
		HasDst:   rng.Intn(4) != 0,
		HasSrc1:  rng.Intn(4) != 0,
		HasSrc2:  rng.Intn(2) == 0,
		MemUop:   rng.Intn(3) == 0,
		Opcode:   uint16(pick(4, 1<<16)),
	}
}

// randomPlan returns a plan of the given kind: nil (baseline), one
// technique on every bit, or a per-bit mix of every technique with some
// fields left out of the plan.
func randomPlan(rng *rand.Rand, kind int) *Plan {
	ks := []float64{0.5, 0.6, 0.75, 0.95, rng.Float64()}
	uniform := []mitigation.Technique{mitigation.TechALL1, mitigation.TechALL0, mitigation.TechALL1K, mitigation.TechALL0K, mitigation.TechISV}
	if kind == 0 {
		return nil
	}
	p := &Plan{}
	for f := FieldID(0); f < NumFields; f++ {
		if kind > len(uniform) && rng.Intn(5) == 0 {
			continue
		}
		bits := make([]mitigation.BitPlan, fieldSpecs[f].Bits)
		for b := range bits {
			t := mitigation.Technique(rng.Intn(int(mitigation.NumTechniques)))
			if kind <= len(uniform) {
				t = uniform[kind-1]
			}
			bits[b] = mitigation.BitPlan{Technique: t, K: ks[rng.Intn(len(ks))]}
		}
		p.Fields[f] = bits
	}
	return p
}

// TestSchedulerMatchesReference drives the scheduler and the naive
// reference accountant with the same seeded random Dispatch, MarkReady,
// Issue and Release streams, over random entry and port counts, RINV
// periods and plans, and requires identical reports.
func TestSchedulerMatchesReference(t *testing.T) {
	const cases = 120
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		cfg := Config{
			Entries:    1 + rng.Intn(8),
			AllocPorts: 1 + rng.Intn(4),
			RINVPeriod: []uint64{0, 1, 7, 64}[rng.Intn(4)],
			Plan:       randomPlan(rng, c%7),
		}
		s, ref := New(cfg), newRefSched(cfg)
		type state struct{ busy, issued bool }
		slots := make([]state, cfg.Entries)
		cycle := uint64(rng.Intn(3))
		for ev := 0; ev < 400; ev++ {
			cycle += uint64(rng.Intn(3))
			slot := rng.Intn(cfg.Entries)
			st := &slots[slot]
			switch op := rng.Intn(10); {
			case op < 4:
				d := randomDispatch(rng)
				// The reference keeps the FIFO free list the pipeline
				// core keeps for the scheduler, and names the slot.
				if got, ok := ref.Dispatch(&d, cycle); ok {
					s.Dispatch(got, &d, cycle)
					slots[got] = state{busy: true}
				}
			case op < 6 && st.busy:
				src1, src2 := rng.Intn(2) == 0, rng.Intn(2) == 0
				s.MarkReady(slot, src1, src2, cycle)
				ref.MarkReady(slot, src1, src2, cycle)
			case op < 8 && st.busy && !st.issued:
				s.Issue(slot, cycle)
				ref.Issue(slot, cycle)
				st.issued = true
			case op >= 8 && st.busy:
				s.Release(slot, cycle)
				ref.Release(slot, cycle)
				*st = state{}
			}
		}
		end := cycle + uint64(rng.Intn(20))
		s.Finish(end)
		if got, want := s.Report(), ref.Report(end); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (entries %d, ports %d, plan kind %d): report differs from the reference\ngot  %+v\nwant %+v",
				c, cfg.Entries, cfg.AllocPorts, c%7, got, want)
		}
	}
}

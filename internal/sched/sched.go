package sched

import (
	"fmt"
	"math/bits"

	"penelope/internal/mitigation"
	"penelope/internal/stats"
)

// Config describes a scheduler instance.
type Config struct {
	// Entries is the number of reservation-station slots (32 in §4.5).
	Entries int
	// AllocPorts bounds dispatches — and therefore leftover repair
	// writes — per cycle ("on average 77% of the ports from allocate
	// are available").
	AllocPorts int
	// RINVPeriod is the resampling period of the ISV fields' RINV in
	// cycles ("every some thousands or millions of cycles").
	RINVPeriod uint64
	// Plan, when non-nil, enables the NBTI techniques. A nil plan is
	// the measured baseline.
	Plan *Plan
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("sched: entries must be positive")
	case c.AllocPorts <= 0:
		return fmt.Errorf("sched: need at least one allocate port")
	default:
		return nil
	}
}

// Plan assigns a repair technique to every bit of every field.
type Plan struct {
	Fields [NumFields][]mitigation.BitPlan
}

// Technique returns the dominant technique of a field (the technique of
// the majority of its bits), for reporting. Ties break toward the
// technique of the lowest bit so the answer is deterministic (a map
// iteration here once made tied fields flip between runs). Counting uses
// a dense per-technique array: Technique runs once per field per Report,
// and the map it used to allocate showed up in the sweep profiles.
func (p *Plan) Technique(id FieldID) mitigation.Technique {
	var counts [mitigation.NumTechniques]int
	best, bestN := mitigation.TechNone, 0
	for _, bp := range p.Fields[id] {
		counts[bp.Technique]++
		if n := counts[bp.Technique]; n > bestN {
			best, bestN = bp.Technique, n
		}
	}
	return best
}

// repairProg is one field's repair plan compiled to bit masks. Bits
// outside every mask are ALL0: they repair to "0" and need no work.
type repairProg struct {
	present bool   // the plan covers this field
	ones    uint64 // ALL1 bits: written to "1" on every repair
	stale   uint64 // self-balanced/uncovered bits: keep current contents
	isv     uint64 // ISV bits: RINV contents while inverting, else stale
	kbits   []kRepairBit
}

// kRepairBit is one ALL1-K%/ALL0-K% bit; Tick must run once per repair
// in bit order to advance the shared duty counter exactly as the
// uncompiled per-bit loop did.
type kRepairBit struct {
	mask uint64 // 1 << bit position
	ctr  *mitigation.DutyCounter
	zero bool // ALL0-K%: repair level is the counter's complement
}

// valueTableBits bounds the field width accounted through dense
// per-value time tables: the 12-bit opcode is the widest narrow field,
// and 2·2¹²·8 B = 64 KB per scheduler keeps the tables cheap to zero.
const valueTableBits = 12

// entry is one reservation-station slot and its bias accounting state.
//
// Busy/free state changes per slot, not per field: a dispatch makes the
// written fields live at once, and only the release (and, for the data
// fields, the issue) ends that. So the slot keeps one live mask and the
// cycle it went live, and each field keeps a value-run: the cycle its
// current value was stored and the busy-live cycles credited to the run
// so far. Issue and Release credit the elapsed live segment to the fields
// that die; a value change expands the run with free time derived as
// run length minus busy time.
type entry struct {
	busy   bool
	issued bool
	// live is a bitset over fields holding meaningful data: data-capture
	// fields are live only when the operand was captured at dispatch and
	// die at issue; the MOB id is live only for memory uops.
	live uint32
	// since is the dispatch cycle: the start of the live segment of
	// every field in live.
	since  uint64
	values [NumFields]uint64
	// runStart[f] is the cycle the current value of f was stored;
	// runBusy[f] the busy-live cycles credited to that run. While f is
	// live, runBusy[f] is offset by minus the part of the live segment
	// that precedes the run, modulo 2⁶⁴, so crediting the whole segment
	// at issue or release stays exact.
	runStart [NumFields]uint64
	runBusy  [NumFields]uint64
	// inverted is a bitset over fields currently holding RINV-inverted
	// repair contents (meaningful while free; cleared when real data
	// arrives).
	inverted uint32
}

// isvClock implements the timestamp rule of §3.2.2: entries are written
// with inverted contents only while cumulative inverted-cell time lags
// half the total cell time, pinning inverted occupancy at 50%. Busy
// entries hold real (non-inverted) data, so only free inverted cells
// accumulate inverted time. This is the "track all entries" variant the
// paper notes is statistically identical to sampling one fixed entry.
type isvClock struct {
	cells         int // pool size (entries, or 2·entries when shared)
	invertedCells int // cells currently holding inverted contents
	invertedTime  uint64
	totalTime     uint64
}

func (c *isvClock) advance(dt uint64) {
	c.invertedTime += uint64(c.invertedCells) * dt
	c.totalTime += uint64(c.cells) * dt
}

// wantInvert reports whether the next release should write inverted
// contents.
func (c *isvClock) wantInvert() bool {
	return c.invertedTime*2 <= c.totalTime
}

// Scheduler is the bias accountant of the reservation stations. It does
// not choose slots: its owner keeps the free list (a FIFO, so slots
// rotate through allocation; a LIFO would leave low slots stagnating
// with one value at moderate occupancy, defeating the balancing) and
// tells the scheduler which slot was dispatched, issued or released.
type Scheduler struct {
	cfg Config

	entries []entry

	// Per-field aggregated bias trackers. A field's value-run (see entry)
	// is expanded into its tracker only when the stored value actually
	// changes, so a field that keeps its contents across whole
	// lifecycles — latencies, flags, stale data — is accounted as one
	// long interval instead of one per event. The totals are identical
	// (Observe is additive over equal-value intervals) and the per-bit
	// expansion runs a fraction as often.
	bias [NumFields]*stats.BitBias
	// valueTime[f] aggregates expanded runs per stored value for narrow
	// fields (width ≤ valueTableBits): slot 2v holds busy time, 2v+1
	// free time. Narrow fields cycle through a handful of values
	// (latencies, ports, opcodes, tags), so almost every expansion is
	// one indexed add; the per-bit Observe walk happens once per
	// distinct value at Finish. Wide fields (SRC data, immediate) keep
	// the direct path — their value space is too large to table.
	valueTime [NumFields][]uint64

	occ       *stats.Occupancy
	dataOcc   *stats.Occupancy // occupancy of the SRC1 data field cells
	busyCount int
	dataCount int
	lastCycle uint64

	// Allocate-port budget per cycle.
	portCycle uint64
	portUsed  int
	portStats stats.Utilization

	// ISV machinery: every field has its own RINV (§3.2.2: "independent
	// RINV registers and strategies are used for each field"); SRC1 and
	// SRC2 data share a timestamp clock, the rest have their own (§4.5:
	// "2 timestamps of 10 bits each suffice" for the ISV fields).
	rinv [NumFields]*mitigation.RINV
	isv  [NumFields]*isvClock
	// clocks holds the distinct isvClock instances, so advance need not
	// deduplicate the shared SRC-data clock on every call.
	clocks []*isvClock

	// Duty counters per distinct K, lazily created.
	duty map[int]*mitigation.DutyCounter

	// repair holds the plan compiled into per-field mask programs, so
	// the per-release repair path is a handful of word operations
	// instead of a per-bit technique switch (the switch dominated the
	// Fig 8 sweep profile). Only the ALL1-K%/ALL0-K% bits keep a per-bit
	// walk, because each Tick advances shared duty-counter state.
	repair [NumFields]repairProg

	repairWrites    uint64
	repairDiscarded uint64
	dispatches      uint64
}

// New builds a scheduler.
func New(cfg Config) *Scheduler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Scheduler{
		cfg:     cfg,
		entries: make([]entry, cfg.Entries),
		occ:     stats.NewOccupancy(cfg.Entries),
		dataOcc: stats.NewOccupancy(cfg.Entries),
		duty:    map[int]*mitigation.DutyCounter{},
	}
	for f := FieldID(0); f < NumFields; f++ {
		s.bias[f] = stats.NewBitBias(fieldSpecs[f].Bits)
		s.rinv[f] = mitigation.NewRINV(fieldSpecs[f].Bits, cfg.RINVPeriod)
		if fieldSpecs[f].Bits <= valueTableBits {
			s.valueTime[f] = make([]uint64, 2<<uint(fieldSpecs[f].Bits))
		}
	}
	// SRC1/SRC2 data share one clock; every other field has its own.
	shared := &isvClock{cells: 2 * cfg.Entries}
	s.isv[FieldSRC1Data] = shared
	s.isv[FieldSRC2Data] = shared
	s.clocks = append(s.clocks, shared)
	for f := FieldID(0); f < NumFields; f++ {
		if s.isv[f] == nil {
			s.isv[f] = &isvClock{cells: cfg.Entries}
			s.clocks = append(s.clocks, s.isv[f])
		}
	}
	if cfg.Plan != nil {
		s.compilePlan()
	}
	return s
}

// Reset returns the scheduler to the state New built — every slot free
// and holding zeros, all accounting, RINVs, ISV clocks and duty counters
// cleared — keeping the compiled plan and without allocating.
func (s *Scheduler) Reset() {
	*s = Scheduler{
		cfg:       s.cfg,
		entries:   s.entries,
		bias:      s.bias,
		valueTime: s.valueTime,
		occ:       s.occ,
		dataOcc:   s.dataOcc,
		rinv:      s.rinv,
		isv:       s.isv,
		clocks:    s.clocks,
		duty:      s.duty,
		repair:    s.repair,
	}
	clear(s.entries)
	for f := FieldID(0); f < NumFields; f++ {
		s.bias[f].Reset()
		s.rinv[f].Reset()
		clear(s.valueTime[f])
	}
	s.occ.Reset()
	s.dataOcc.Reset()
	for _, c := range s.clocks {
		*c = isvClock{cells: c.cells}
	}
	for _, c := range s.duty {
		c.Reset()
	}
}

// compilePlan folds the plan's per-bit techniques into the repair mask
// programs. Duty counters are resolved here (shared per K exactly like
// the lazy map lookups were) so the repair path never hashes.
func (s *Scheduler) compilePlan() {
	for f := FieldID(0); f < NumFields; f++ {
		plans := s.cfg.Plan.Fields[f]
		if len(plans) == 0 {
			continue
		}
		p := &s.repair[f]
		p.present = true
		for bit, bp := range plans {
			m := uint64(1) << uint(bit)
			switch bp.Technique {
			case mitigation.TechALL1:
				p.ones |= m
			case mitigation.TechALL0:
				// Repairs to "0": no mask contributes the bit.
			case mitigation.TechALL1K:
				p.kbits = append(p.kbits, kRepairBit{mask: m, ctr: s.dutyFor(bp.K)})
			case mitigation.TechALL0K:
				p.kbits = append(p.kbits, kRepairBit{mask: m, ctr: s.dutyFor(bp.K), zero: true})
			case mitigation.TechISV:
				p.isv |= m
			default: // self-balanced, uncovered, unclassified: keep stale
				p.stale |= m
			}
		}
	}
}

// Config returns the scheduler configuration.
func (s *Scheduler) Config() Config { return s.cfg }

func (s *Scheduler) advance(cycle uint64) {
	if cycle > s.lastCycle {
		dt := cycle - s.lastCycle
		s.occ.Observe(s.busyCount, dt)
		s.dataOcc.Observe(s.dataCount, dt)
		for _, c := range s.clocks {
			c.advance(dt)
		}
		s.lastCycle = cycle
	}
}

func (s *Scheduler) refreshPorts(cycle uint64) {
	if cycle != s.portCycle {
		s.portCycle = cycle
		s.portUsed = 0
	}
}

// takePort consumes one allocate port this cycle; repair is true for
// leftover-port repair writes, which may be denied.
func (s *Scheduler) takePort(cycle uint64, repair bool) bool {
	s.refreshPorts(cycle)
	if s.portUsed >= s.cfg.AllocPorts {
		if repair {
			s.portStats.Deny()
			return false
		}
		s.portUsed++
		return true
	}
	s.portStats.Use()
	s.portUsed++
	return true
}

// credit closes the live segment of the fields in dead: they held live
// data from the dispatch cycle until cycle.
func (e *entry) credit(dead uint32, cycle uint64) {
	dt := cycle - e.since
	for m := dead; m != 0; m &= m - 1 {
		e.runBusy[bits.TrailingZeros32(m)] += dt
	}
}

// flushField expands the value-run of (slot, field) into the field's
// value table (narrow fields) or bias tracker (wide fields) and starts a
// new run at cycle. Callers invoke it just before a mutation that
// changes the stored value.
func (s *Scheduler) flushField(slot int, f FieldID, cycle uint64) {
	e := &s.entries[slot]
	busy := e.runBusy[f]
	e.runBusy[f] = 0
	if e.live>>f&1 != 0 {
		busy += cycle - e.since
		e.runBusy[f] = e.since - cycle
	}
	free := cycle - e.runStart[f] - busy
	e.runStart[f] = cycle
	v := e.values[f]
	if t := s.valueTime[f]; t != nil {
		t[2*v] += busy
		t[2*v+1] += free
		return
	}
	s.bias[f].Observe(v, busy)
	s.bias[f].ObserveFree(v, free)
}

// dataFields are the data-capture fields released at issue (§4.5).
var dataFields = [...]FieldID{FieldSRC1Data, FieldSRC2Data, FieldImm}

// dataMask is dataFields as a field bitset.
const dataMask = 1<<FieldSRC1Data | 1<<FieldSRC2Data | 1<<FieldImm

// Dispatch fills free slot slot with a uop's fields, consuming one
// allocate port. d is read-only; it is taken by pointer to keep the
// per-uop hot path copy-free.
func (s *Scheduler) Dispatch(slot int, d *Dispatch, cycle uint64) {
	s.advance(cycle)
	e := &s.entries[slot]
	if e.busy {
		panic("sched: Dispatch into busy slot")
	}
	s.takePort(cycle, false)
	values, live := d.fields()
	// Fields the uop does not write keep their contents and stay free,
	// so their runs just extend. Written fields go live; the per-bit
	// expansion is only needed when the incoming data differs from the
	// cell's current contents — redispatching an equal value (zero
	// results, repeated latencies and flags) just extends the value-run.
	for m := live; m != 0; m &= m - 1 {
		f := FieldID(bits.TrailingZeros32(m))
		v := values[f]
		if v != e.values[f] {
			s.flushField(slot, f, cycle)
			e.values[f] = v
		}
		if e.inverted>>f&1 != 0 {
			// Real data overwrites repair contents.
			s.isv[f].invertedCells--
		}
		// Sample write-port data into the RINVs (§4.5: "Sampled values
		// ... can be taken from the register file when read or from
		// bypasses ... immediate values are taken directly from the
		// instruction").
		s.rinv[f].Offer(v, cycle)
	}
	e.inverted &^= live
	e.live = live
	e.since = cycle
	e.busy = true
	e.issued = false
	if live>>FieldSRC1Data&1 != 0 {
		s.dataCount++
	}
	s.busyCount++
	s.dispatches++
}

// MarkReady sets the ready bits when operands arrive.
func (s *Scheduler) MarkReady(slot int, src1, src2 bool, cycle uint64) {
	e := &s.entries[slot]
	if !e.busy {
		panic("sched: MarkReady on free slot")
	}
	// A ready bit that is already set extends its run untouched.
	if src1 && e.values[FieldReady1] != 1 {
		s.flushField(slot, FieldReady1, cycle)
		e.values[FieldReady1] = 1
	}
	if src2 && e.values[FieldReady2] != 1 {
		s.flushField(slot, FieldReady2, cycle)
		e.values[FieldReady2] = 1
	}
}

// Issue releases the data-capture fields of a slot: the uop has left for
// execution, so SRC data and the immediate are dead from here on and can
// take repair values through one leftover allocate port.
func (s *Scheduler) Issue(slot int, cycle uint64) {
	s.advance(cycle)
	e := &s.entries[slot]
	if !e.busy || e.issued {
		panic("sched: bad Issue")
	}
	e.issued = true
	if e.live>>FieldSRC1Data&1 != 0 {
		s.dataCount--
	}
	// Only fields that actually held captured data change state
	// (busy-live → free); the values survive the issue.
	e.credit(e.live&dataMask, cycle)
	e.live &^= dataMask
	if s.cfg.Plan == nil {
		return
	}
	if !s.takePort(cycle, true) {
		s.repairDiscarded++
		return
	}
	for _, f := range dataFields {
		s.repairField(slot, f, cycle)
	}
	s.repairWrites++
}

// Release frees the whole slot, applying the plan's repair values to the
// remaining fields through one leftover allocate port.
func (s *Scheduler) Release(slot int, cycle uint64) {
	s.advance(cycle)
	e := &s.entries[slot]
	if !e.busy {
		panic("sched: double release")
	}
	// The live fields turn free; values survive the release, so nothing
	// expands here.
	e.credit(e.live, cycle)
	if !e.issued && e.live>>FieldSRC1Data&1 != 0 {
		s.dataCount--
	}
	e.live = 0
	e.busy = false
	s.busyCount--
	// The valid bit physically drops to 0 the moment the slot frees;
	// that is its unprotectable duty cycle — a real value change, so its
	// run expands first.
	s.flushField(slot, FieldValid, cycle)
	e.values[FieldValid] = 0
	if s.cfg.Plan != nil {
		if s.takePort(cycle, true) {
			for f := FieldID(0); f < NumFields; f++ {
				if f == FieldValid || fieldSpecs[f].DataField {
					continue // valid unprotectable; data fields repaired at issue
				}
				s.repairField(slot, f, cycle)
			}
			s.repairWrites++
		} else {
			s.repairDiscarded++
		}
	}
}

// repairField writes the plan's repair value into a freed field, closing
// the field's pending run first when the value actually changes. The
// compiled mask program assembles the value word-at-a-time; only the
// K% bits tick their duty counters individually, in bit order, so the
// shared counter state advances exactly as the per-bit loop did.
func (s *Scheduler) repairField(slot int, f FieldID, cycle uint64) {
	p := &s.repair[f]
	if !p.present {
		return
	}
	e := &s.entries[slot]
	clk := s.isv[f]
	invert := clk.wantInvert()
	v := e.values[f]&p.stale | p.ones
	if invert {
		v |= s.rinv[f].Value() & p.isv
	} else {
		v |= e.values[f] & p.isv // keep stale
	}
	for _, kb := range p.kbits {
		if kb.ctr.Tick() != kb.zero {
			v |= kb.mask
		}
	}
	if v != e.values[f] {
		s.flushField(slot, f, cycle)
		e.values[f] = v
	}
	if invert && p.isv != 0 && e.inverted>>f&1 == 0 {
		e.inverted |= 1 << f
		clk.invertedCells++
	}
}

// dutyFor returns the shared duty counter for a K value, quantized to a
// 20-cycle period (the paper's "4 small counters of up to 5 bits each").
func (s *Scheduler) dutyFor(k float64) *mitigation.DutyCounter {
	key := int(k*20 + 0.5)
	if c, ok := s.duty[key]; ok {
		return c
	}
	c := mitigation.NewDutyCounter(20, float64(key)/20)
	s.duty[key] = c
	return c
}

// Finish closes all accounting at the end cycle: every pending run is
// expanded, and the narrow fields' value tables drain into the bias
// trackers — one Observe per distinct value ever held.
func (s *Scheduler) Finish(cycle uint64) {
	s.advance(cycle)
	for i := range s.entries {
		for f := FieldID(0); f < NumFields; f++ {
			s.flushField(i, f, cycle)
		}
	}
	for f := FieldID(0); f < NumFields; f++ {
		t := s.valueTime[f]
		if t == nil {
			continue
		}
		for v := 0; v < len(t); v += 2 {
			if t[v] > 0 {
				s.bias[f].Observe(uint64(v/2), t[v])
				t[v] = 0
			}
			if t[v+1] > 0 {
				s.bias[f].ObserveFree(uint64(v/2), t[v+1])
				t[v+1] = 0
			}
		}
	}
}

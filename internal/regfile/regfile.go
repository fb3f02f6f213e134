// Package regfile models a physical register file with the NBTI-aware
// invert-at-release mechanism of paper §4.4 (Figure 7).
//
// The register file is an explicitly managed block whose entries are free
// most of the time (54% for the integer file, 69% for FP). The ISV
// technique keeps a per-file RINV register holding the inversion of a
// periodically sampled write-port value; when a register is released and
// a write port is free, RINV is written into it, so over time cells hold
// inverted and non-inverted data in near-equal shares and per-bit bias
// approaches 50% (Figure 6).
//
// Registers wider than 64 bits (the 80-bit FP registers) are modelled as
// a 64-bit low bank plus a 16-bit extension bank, each with its own bias
// tracker and RINV slice.
package regfile

import (
	"fmt"

	"penelope/internal/mitigation"
	"penelope/internal/stats"
)

// Config describes a register file.
type Config struct {
	Name    string
	Entries int
	// Bits is the register width: 32 for the integer file, 80 for FP.
	// Widths above 64 split into a 64-bit bank plus an extension bank.
	Bits int
	// WritePorts bounds how many writes (including repair writes) can
	// retire per cycle.
	WritePorts int
	// RINVPeriod is the sampling period of the repair register in
	// cycles (§3.2: "we can update RINV ... every one million cycles";
	// the register file samples far more often since its values churn).
	RINVPeriod uint64
	// EnableISV turns the mechanism on; off gives the baseline.
	EnableISV bool
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("regfile %q: entries must be positive", c.Name)
	case c.Bits <= 0 || c.Bits > 128:
		return fmt.Errorf("regfile %q: bits must be in (0,128]", c.Name)
	case c.WritePorts <= 0:
		return fmt.Errorf("regfile %q: need at least one write port", c.Name)
	default:
		return nil
	}
}

type entry struct {
	busy       bool
	value      uint64
	ext        uint64 // bits above 64
	lastTouch  uint64 // cycle the pending segment starts
	pendBusy   uint64 // pending busy cycles under the current value
	pendFree   uint64 // pending free cycles under the current value
	invContent bool   // holds RINV repair contents (only while free)
}

// File is the bias accountant of a physical register file. It does not
// choose registers: its owner keeps the free list (a FIFO, as in
// hardware, so registers rotate through allocation instead of a stack
// bottom stagnating with one value and defeating the balancing) and
// tells the file which register was allocated, written or released.
type File struct {
	cfg     Config
	loBits  int // tracked in the low bank (≤ 64)
	extBits int // tracked in the extension bank

	entries []entry

	rinvLo  *mitigation.RINV
	rinvExt *mitigation.RINV

	biasLo  *stats.BitBias
	biasExt *stats.BitBias
	occ     *stats.Occupancy
	ports   stats.Utilization

	busyCount    int
	lastOccCycle uint64
	portCycle    uint64
	portUsed     int

	// ISV timestamp rule (§3.2.2): inverted contents may only be
	// written while cumulative inverted-cell time lags half the total
	// cell time, so cells hold inverted data exactly 50% of the time
	// regardless of how long entries stay free.
	invertedCells int
	invertedTime  uint64
	totalCellTime uint64

	// Counters the paper reports.
	releases        uint64
	repairWrites    uint64
	repairDiscarded uint64
}

// New builds a register file. All entries start free holding zeros (the
// cold-start state §4.4 blames for the slightly worse FP balance).
func New(cfg Config) *File {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lo, ext := cfg.Bits, 0
	if lo > 64 {
		ext = lo - 64
		lo = 64
	}
	f := &File{
		cfg:     cfg,
		loBits:  lo,
		extBits: ext,
		entries: make([]entry, cfg.Entries),
		biasLo:  stats.NewBitBias(lo),
		occ:     stats.NewOccupancy(cfg.Entries),
		rinvLo:  mitigation.NewRINV(lo, cfg.RINVPeriod),
	}
	if ext > 0 {
		f.biasExt = stats.NewBitBias(ext)
		f.rinvExt = mitigation.NewRINV(ext, cfg.RINVPeriod)
	}
	return f
}

// Reset returns the file to the state New built — every entry free and
// holding zeros, all accounting cleared — without allocating.
func (f *File) Reset() {
	*f = File{
		cfg:     f.cfg,
		loBits:  f.loBits,
		extBits: f.extBits,
		entries: f.entries,
		rinvLo:  f.rinvLo,
		rinvExt: f.rinvExt,
		biasLo:  f.biasLo,
		biasExt: f.biasExt,
		occ:     f.occ,
		ports:   f.ports,
	}
	clear(f.entries)
	f.rinvLo.Reset()
	f.biasLo.Reset()
	if f.rinvExt != nil {
		f.rinvExt.Reset()
		f.biasExt.Reset()
	}
	f.occ.Reset()
	f.ports.Reset()
}

// Config returns the file's configuration.
func (f *File) Config() Config { return f.cfg }

// accountOccupancy integrates occupancy up to the given cycle.
func (f *File) accountOccupancy(cycle uint64) {
	if cycle > f.lastOccCycle {
		dt := cycle - f.lastOccCycle
		f.occ.Observe(f.busyCount, dt)
		f.invertedTime += uint64(f.invertedCells) * dt
		f.totalCellTime += uint64(f.cfg.Entries) * dt
		f.lastOccCycle = cycle
	}
}

// refreshPorts resets the per-cycle write-port budget.
func (f *File) refreshPorts(cycle uint64) {
	if cycle != f.portCycle {
		f.portCycle = cycle
		f.portUsed = 0
	}
}

// takePortDemand consumes a port for a demand write. Demand writes have
// priority and always proceed; the budget merely records how many ports
// the cycle has left for repair writes.
func (f *File) takePortDemand(cycle uint64) {
	f.refreshPorts(cycle)
	if f.portUsed < f.cfg.WritePorts {
		f.ports.Use()
	}
	f.portUsed++
}

// takePortRepair claims a leftover port for a repair write, returning
// false when the cycle's ports are exhausted ("Any update that cannot be
// done when the register is released because of lack of idle ports is
// discarded", §4.4).
func (f *File) takePortRepair(cycle uint64) bool {
	f.refreshPorts(cycle)
	if f.portUsed >= f.cfg.WritePorts {
		f.ports.Deny()
		return false
	}
	f.ports.Use()
	f.portUsed++
	return true
}

// touchEntry closes the current segment of entry i at cycle, crediting
// it to the pending busy or free counter of the register's value-run.
// Allocate and Release only move this busy/free boundary; the per-bit
// expansion waits until the stored value changes, so a register that is
// written once and recycled keeps one long run per value.
func (f *File) touchEntry(i int, cycle uint64) {
	e := &f.entries[i]
	if cycle <= e.lastTouch {
		return
	}
	dt := cycle - e.lastTouch
	if e.busy {
		e.pendBusy += dt
	} else {
		e.pendFree += dt
	}
	e.lastTouch = cycle
}

// flushEntry expands the pending value-run of entry i into the bias
// trackers. Callers invoke it just before the stored value changes.
func (f *File) flushEntry(i int, cycle uint64) {
	f.touchEntry(i, cycle)
	e := &f.entries[i]
	if e.pendBusy > 0 {
		f.biasLo.Observe(e.value, e.pendBusy)
		if f.biasExt != nil {
			f.biasExt.Observe(e.ext, e.pendBusy)
		}
		e.pendBusy = 0
	}
	if e.pendFree > 0 {
		f.biasLo.ObserveFree(e.value, e.pendFree)
		if f.biasExt != nil {
			f.biasExt.ObserveFree(e.ext, e.pendFree)
		}
		e.pendFree = 0
	}
}

// Allocate accounts free register reg as claimed at the given cycle.
func (f *File) Allocate(reg int, cycle uint64) {
	f.accountOccupancy(cycle)
	e := &f.entries[reg]
	if e.busy {
		panic(fmt.Sprintf("regfile %s: allocation of busy register %d", f.cfg.Name, reg))
	}
	f.touchEntry(reg, cycle)
	e.busy = true
	f.busyCount++
}

// Write stores a value into a busy register through a write port. The
// value also feeds the RINV sampler ("RINV is updated periodically with
// the value flowing through a given write port").
func (f *File) Write(reg int, value, ext uint64, cycle uint64) {
	f.accountOccupancy(cycle)
	e := &f.entries[reg]
	if !e.busy {
		panic(fmt.Sprintf("regfile %s: write to free register %d", f.cfg.Name, reg))
	}
	f.takePortDemand(cycle)
	v, x := f.maskLo(value), f.maskExt(ext)
	// A write of the value the cell already holds extends the current
	// run instead of closing it: the bias totals are identical (Observe
	// is additive over equal-value intervals) and the per-bit expansion
	// is skipped. Rewrites with identical data are common — zero results,
	// repeated constants — so this is a hot-path win, not a corner case.
	if v != e.value || x != e.ext {
		f.flushEntry(reg, cycle)
		e.value = v
		e.ext = x
	}
	if e.invContent {
		e.invContent = false
		f.invertedCells--
	}
	f.rinvLo.Offer(v, cycle)
	if f.rinvExt != nil {
		f.rinvExt.Offer(x, cycle)
	}
}

// Release frees a register. With ISV enabled and a write port free, the
// RINV repair value is written into the cell; otherwise the update is
// discarded, which §4.4 measures to be rare (ports are free 92%/86% of
// the time) and harmless.
func (f *File) Release(reg int, cycle uint64) {
	f.accountOccupancy(cycle)
	e := &f.entries[reg]
	if !e.busy {
		panic(fmt.Sprintf("regfile %s: double release of register %d", f.cfg.Name, reg))
	}
	f.touchEntry(reg, cycle)
	e.busy = false
	f.busyCount--
	f.releases++
	if f.cfg.EnableISV && f.invertedTime*2 <= f.totalCellTime {
		if f.takePortRepair(cycle) {
			// The repair overwrites the cell: expand its run first.
			f.flushEntry(reg, cycle)
			e.value = f.rinvLo.Value()
			if f.rinvExt != nil {
				e.ext = f.rinvExt.Value()
			}
			e.invContent = true
			f.invertedCells++
			f.repairWrites++
		} else {
			f.repairDiscarded++
		}
	}
}

// Finish closes all accounting at the given end cycle. Call once before
// reading Report.
func (f *File) Finish(cycle uint64) {
	f.accountOccupancy(cycle)
	for i := range f.entries {
		f.flushEntry(i, cycle)
	}
}

func (f *File) maskLo(v uint64) uint64 {
	if f.loBits == 64 {
		return v
	}
	return v & (1<<uint(f.loBits) - 1)
}

func (f *File) maskExt(v uint64) uint64 {
	if f.extBits == 0 {
		return 0
	}
	return v & (1<<uint(f.extBits) - 1)
}

// Report summarizes the NBTI-relevant statistics of a run.
type Report struct {
	Name             string
	Bits             int
	FreeFraction     float64   // fraction of time entries are free
	PortAvailability float64   // fraction of repair writes finding a port
	Biases           []float64 // per-bit zero bias over total time
	WorstBias        float64   // worst cell bias (max of bias, 1-bias)
	RepairWrites     uint64
	RepairDiscarded  uint64
	Releases         uint64
}

// Report computes the run summary. Finish must have been called.
func (f *File) Report() Report {
	r := Report{
		Name:             f.cfg.Name,
		Bits:             f.cfg.Bits,
		FreeFraction:     f.occ.FreeFraction(),
		PortAvailability: f.ports.Availability(),
		RepairWrites:     f.repairWrites,
		RepairDiscarded:  f.repairDiscarded,
		Releases:         f.releases,
	}
	// One exactly-sized backing array for the full bit series: the report
	// is built once per run per file, and the append-of-append pattern
	// here used to churn three allocations per call.
	r.Biases = f.biasLo.AppendBiases(make([]float64, 0, f.cfg.Bits))
	worst := f.biasLo.WorstCellBias()
	if f.biasExt != nil {
		r.Biases = f.biasExt.AppendBiases(r.Biases)
		if w := f.biasExt.WorstCellBias(); w > worst {
			worst = w
		}
	}
	r.WorstBias = worst
	return r
}

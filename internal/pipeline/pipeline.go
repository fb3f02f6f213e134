package pipeline

import (
	"slices"

	"penelope/internal/cache"
	"penelope/internal/regfile"
	"penelope/internal/sched"
	"penelope/internal/trace"
)

// Result is the outcome of running one trace through the core.
type Result struct {
	Trace  string
	Uops   uint64
	Cycles uint64
	CPI    float64

	IntRF regfile.Report
	FPRF  regfile.Report
	Sched sched.Report

	DL0MissRate   float64
	DTLBMissRate  float64
	DL0MRUHits    float64 // fraction of DL0 hits at the MRU position
	DL0Inverted   float64 // average inverted-line fraction
	DTLBInverted  float64
	DL0Stats      cache.Stats
	DTLBStats     cache.Stats
	AdderUtil     []float64 // per-adder busy fraction
	AdderUtilMean float64
}

// Core is one reusable timing core. It owns the timing state — clock,
// event wheel, rename tables, the FIFO free lists of integer and FP
// registers and of scheduler slots, issue ports, adders, ROB, DL0 and
// DTLB — and answers every timing question from it. For the structures
// it accounts it drives a register-file pair per distinct ISV setting
// and a scheduler per distinct plan among its variants; those
// accountants only record the claims, writes and frees the timing state
// tells them, so a core may carry none of either. Each Run starts from
// the state NewCore built, so one core serves any number of sources and,
// once warm, replays a recording without allocating.
type Core struct {
	cfg      Config
	accounts Accounts
	w        wheel

	intRFs []*regfile.File
	fpRFs  []*regfile.File
	schs   []*sched.Scheduler
	dl0    *cache.Cache
	dtlb   *cache.Cache

	// Hardware free lists: physical registers per file and scheduler
	// slots.
	intFree  freeList
	fpFree   freeList
	slotFree freeList

	// Dense scoreboards indexed by physical register: the ready cycle of
	// the last value written, 0 once the register retires (a map would
	// pay hashing on the two lookups every uop makes).
	ready  []uint64
	fready []uint64

	portFree  []uint64 // issue port -> next free cycle
	adderFree []uint64 // adder -> next free cycle
	adderBusy []uint64 // adder -> total busy cycles

	dirty bool // a run has started since the core was built or reset
	coreRun
}

// coreRun is the scalar state of one run, zeroed between runs.
type coreRun struct {
	cycle uint64

	intRAT [trace.NumIntRegs]int
	fpRAT  [trace.NumFPRegs]int

	adderRR int

	robCount    int
	lastRetire  uint64
	retiredAt   uint64
	retiredThis int

	dispatched      uint64
	allocThis       int
	allocCycle      uint64
	frontStallUntil uint64

	traceName string // the source's name
	end       uint64 // cycles simulated, set when the run finishes
}

// Run simulates one uop source through a core built from cfg and returns
// the measured statistics of every structure. The source is reset first;
// runs are deterministic. Sources are either synthesizing generators
// (*trace.Trace) or zero-allocation replay cursors over a shared
// recording (*trace.Cursor); sweeping many configurations over the same
// workload should record once and hand each Run a cursor.
func Run(cfg Config, src trace.Source) Result {
	m := cfg.mitigation()
	c := NewCore(cfg, []Mitigation{m}, AccountAll)
	c.Run(src)
	return c.Result(m)
}

// NewCore builds a core from cfg that reports each of variants (cfg's
// EnableISV and SchedPlan replaced by the variant), accounting the
// structures in accounts. It panics if cfg is invalid.
func NewCore(cfg Config, variants []Mitigation, accounts Accounts) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg:       cfg,
		accounts:  accounts,
		dl0:       cache.New(cfg.DL0Bytes, cfg.DL0Line, cfg.DL0Ways, cfg.DL0Options),
		dtlb:      cache.NewTLB(cfg.DTLBEntries, cfg.DTLBWays, cfg.PageBytes, cfg.DTLBOptions),
		intFree:   newFreeList(cfg.IntRegs),
		fpFree:    newFreeList(cfg.FPRegs),
		slotFree:  newFreeList(cfg.SchedEntries),
		ready:     make([]uint64, cfg.IntRegs),
		fready:    make([]uint64, cfg.FPRegs),
		portFree:  make([]uint64, cfg.IssuePorts),
		adderFree: make([]uint64, cfg.NumAdders),
		adderBusy: make([]uint64, cfg.NumAdders),
	}
	for _, m := range variants {
		if accounts&AccountRegfiles != 0 && c.regfiles(m) < 0 {
			c.intRFs = append(c.intRFs, regfile.New(regfile.Config{
				Name: "int", Entries: cfg.IntRegs, Bits: 32,
				WritePorts: cfg.IntWritePorts, RINVPeriod: cfg.RINVPeriod,
				EnableISV: m.EnableISV,
			}))
			c.fpRFs = append(c.fpRFs, regfile.New(regfile.Config{
				Name: "fp", Entries: cfg.FPRegs, Bits: 80,
				WritePorts: cfg.FPWritePorts, RINVPeriod: cfg.RINVPeriod,
				EnableISV: m.EnableISV,
			}))
		}
		if accounts&AccountScheduler != 0 && c.scheduler(m) < 0 {
			c.schs = append(c.schs, sched.New(sched.Config{
				Entries: cfg.SchedEntries, AllocPorts: cfg.AllocPorts,
				RINVPeriod: cfg.RINVPeriod, Plan: m.SchedPlan,
			}))
		}
	}
	c.w.handler = c.fire
	return c
}

// reset returns the core to the state NewCore built, keeping every
// buffer: the wheel and caches, the accountants and the free lists are
// rewound in place, and the per-run scalars are zeroed.
func (c *Core) reset() {
	c.coreRun = coreRun{}
	c.w.reset()
	for i := range c.intRFs {
		c.intRFs[i].Reset()
		c.fpRFs[i].Reset()
	}
	for _, s := range c.schs {
		s.Reset()
	}
	c.dl0.Reset()
	c.dtlb.Reset()
	c.intFree.reset()
	c.fpFree.reset()
	c.slotFree.reset()
	clear(c.ready)
	clear(c.fready)
	clear(c.portFree)
	clear(c.adderFree)
	clear(c.adderBusy)
}

// regfiles returns the index of the register-file pair serving m, or -1.
func (c *Core) regfiles(m Mitigation) int {
	for i, f := range c.intRFs {
		if f.Config().EnableISV == m.EnableISV {
			return i
		}
	}
	return -1
}

// scheduler returns the index of the scheduler serving m, or -1.
func (c *Core) scheduler(m Mitigation) int {
	for i, s := range c.schs {
		if s.Config().Plan == m.SchedPlan {
			return i
		}
	}
	return -1
}

// Run resets the core and src, then simulates src to the end, closing
// all accounting.
func (c *Core) Run(src trace.Source) {
	if c.dirty {
		c.reset()
	}
	c.dirty = true
	src.Reset()
	c.traceName = src.Name()
	// Architectural state: allocate and zero-fill the committed
	// registers at cycle 0 (the cold-start state §4.4 mentions).
	for i := 0; i < trace.NumIntRegs; i++ {
		r := allocate(&c.intFree, c.intRFs, 0)
		write(c.intRFs, r, 0, 0, 0)
		c.intRAT[i] = r
	}
	for i := 0; i < trace.NumFPRegs; i++ {
		r := allocate(&c.fpFree, c.fpRFs, 0)
		write(c.fpRFs, r, 0, 0, 0)
		c.fpRAT[i] = r
	}

	for {
		u, ok := src.NextUop()
		if !ok {
			break
		}
		c.dispatchUop(u)
	}
	end := c.w.drain()
	if end < c.cycle {
		end = c.cycle
	}
	c.end = end + 1
	for i := range c.intRFs {
		c.intRFs[i].Finish(c.end)
		c.fpRFs[i].Finish(c.end)
	}
	for _, s := range c.schs {
		s.Finish(c.end)
	}
}

// Result reports the last Run as seen by variant m, which must be one of
// the variants the core was built with. Structures the core does not
// account report zero values.
func (c *Core) Result(m Mitigation) Result {
	end := c.end
	res := Result{
		Trace:  c.traceName,
		Uops:   c.dispatched,
		Cycles: end,
	}
	if c.accounts&AccountRegfiles != 0 {
		rf := c.regfiles(m)
		if rf < 0 {
			panic("pipeline: no register files for this variant")
		}
		res.IntRF = c.intRFs[rf].Report()
		res.FPRF = c.fpRFs[rf].Report()
	}
	if c.accounts&AccountScheduler != 0 {
		sch := c.scheduler(m)
		if sch < 0 {
			panic("pipeline: no scheduler for this variant")
		}
		res.Sched = c.schs[sch].Report()
	}
	if c.dispatched > 0 {
		res.CPI = float64(end) / float64(c.dispatched)
	}
	// The caches keep their histograms across runs: copy them out.
	res.DL0Stats = *c.dl0.Stats()
	res.DL0Stats.HitWayRank = slices.Clone(res.DL0Stats.HitWayRank)
	res.DTLBStats = *c.dtlb.Stats()
	res.DTLBStats.HitWayRank = slices.Clone(res.DTLBStats.HitWayRank)
	res.DL0MissRate = res.DL0Stats.MissRate()
	res.DTLBMissRate = res.DTLBStats.MissRate()
	res.DL0MRUHits = res.DL0Stats.MRUHitFraction(0)
	res.DL0Inverted = res.DL0Stats.AvgInvertedFraction(c.dl0.Lines())
	res.DTLBInverted = res.DTLBStats.AvgInvertedFraction(c.dtlb.Lines())
	res.AdderUtil = make([]float64, c.cfg.NumAdders)
	var sum float64
	for i, busy := range c.adderBusy {
		res.AdderUtil[i] = float64(busy) / float64(end)
		sum += res.AdderUtil[i]
	}
	res.AdderUtilMean = sum / float64(c.cfg.NumAdders)
	return res
}

// allocate claims the oldest free register and tells every copy of the
// register file.
func allocate(free *freeList, files []*regfile.File, cycle uint64) int {
	reg := free.pop()
	for _, f := range files {
		f.Allocate(reg, cycle)
	}
	return reg
}

func write(files []*regfile.File, reg int, value, ext, cycle uint64) {
	for _, f := range files {
		f.Write(reg, value, ext, cycle)
	}
}

// release frees a register and tells every copy of the register file.
func release(free *freeList, files []*regfile.File, reg int, cycle uint64) {
	free.push(reg)
	for _, f := range files {
		f.Release(reg, cycle)
	}
}

// advanceTo moves the core clock forward, firing pending events.
func (c *Core) advanceTo(cycle uint64) {
	if cycle > c.cycle {
		c.cycle = cycle
	}
	c.w.fireUpTo(c.cycle)
}

// dispatchUop renames, schedules and executes one uop, stalling the
// front end as resources demand.
func (c *Core) dispatchUop(u *trace.Uop) {
	// Front-end redirect after a mispredicted branch.
	if c.cycle < c.frontStallUntil {
		c.advanceTo(c.frontStallUntil)
	}
	// I-cache miss bubble: fetch delivers nothing while the line comes
	// in, letting the back-end window drain.
	if u.FetchBubble > 0 {
		c.advanceTo(c.cycle + uint64(u.FetchBubble))
		c.allocCycle = c.cycle
		c.allocThis = 0
	}
	// Allocation bandwidth.
	if c.allocCycle != c.cycle {
		c.allocCycle = c.cycle
		c.allocThis = 0
	}
	if c.allocThis >= c.cfg.AllocWidth {
		c.advanceTo(c.cycle + 1)
		c.allocCycle = c.cycle
		c.allocThis = 0
	}

	// Stall until a scheduler slot, ROB slot and destination register
	// are available.
	for {
		c.w.fireUpTo(c.cycle)
		if c.slotFree.empty() || c.robCount >= c.cfg.ROB || !c.destAvailable(u) {
			next := c.w.nextTime()
			if next == ^uint64(0) {
				c.advanceTo(c.cycle + 1)
			} else if next > c.cycle {
				c.advanceTo(next)
			} else {
				c.advanceTo(c.cycle + 1)
			}
			c.allocCycle = c.cycle
			c.allocThis = 0
			continue
		}
		break
	}
	dispatch := c.cycle
	c.allocThis++
	c.dispatched++
	c.robCount++

	// Rename sources.
	src1Phys, src1Ready := c.lookupSrc(u, u.Src1)
	src2Phys, src2Ready := c.lookupSrc(u, u.Src2)

	// Rename destination.
	dstPhys, prevPhys := -1, -1
	if u.Dst >= 0 {
		if u.Class.IsFP() {
			dstPhys = allocate(&c.fpFree, c.fpRFs, dispatch)
			prevPhys = c.fpRAT[u.Dst]
			c.fpRAT[u.Dst] = dstPhys
		} else {
			dstPhys = allocate(&c.intFree, c.intRFs, dispatch)
			prevPhys = c.intRAT[u.Dst]
			c.intRAT[u.Dst] = dstPhys
		}
	}

	// Operand readiness (two cycles of scheduling-loop latency) and
	// issue-port contention: ALU uops may issue on port 0 or 1, the
	// other classes are port-affine.
	ready := dispatch + 2
	if src1Ready > ready {
		ready = src1Ready
	}
	if src2Ready > ready {
		ready = src2Ready
	}
	port := u.Class.Port()
	switch {
	case u.Class == trace.ClassALU && c.portFree[1] < c.portFree[0]:
		port = 1
	case (u.Class.IsFP() || u.Class == trace.ClassMul) && c.portFree[0] < c.portFree[4]:
		// The second FP/Mul pipe shares port 0 with ALU work, so
		// FP-heavy traces don't serialize on a single port.
		port = 0
	}
	issue := ready
	if c.portFree[port] > issue {
		issue = c.portFree[port]
	}
	c.portFree[port] = issue + 1

	// Adders serve integer ALU work and address generation (§4.1:
	// "there is an adder in each integer and address generation port").
	if u.Class == trace.ClassALU || u.Class.IsMem() {
		adder := c.pickAdder(issue)
		if c.adderFree[adder] > issue {
			issue = c.adderFree[adder]
		}
		c.adderFree[adder] = issue + 1
		c.adderBusy[adder]++
	}

	// Execution latency, including the memory hierarchy.
	latency := uint64(u.Class.Latency())
	if u.Class.IsMem() {
		if !c.dtlb.Access(u.Addr, issue) {
			latency += uint64(c.cfg.TLBPenalty)
		}
		if !c.dl0.Access(u.Addr, issue) {
			latency += uint64(c.cfg.L2Latency)
		}
	}
	complete := issue + latency

	// A mispredicted branch starves the front end until it resolves and
	// the pipeline refills; this is what periodically drains the window
	// (without it the scheduler would sit at 100% occupancy forever).
	if u.Class == trace.ClassBranch && u.Mispredict {
		c.frontStallUntil = complete + uint64(c.cfg.RedirectPenalty)
	}

	// Scheduler entry lifecycle: data-capture fields die at issue, the
	// entry itself deallocates two cycles after writeback (replay-safe
	// deallocation), which is what keeps occupancy near the paper's
	// 63% under dependence and miss pressure.
	// Operands count as captured when they arrive within the two-cycle
	// scheduling loop; later ones come over the bypass network.
	slot := c.slotFree.pop()
	if len(c.schs) > 0 {
		d := sched.FromUop(u, dstPhys, src1Phys, src2Phys, src1Ready <= dispatch+2, src2Ready <= dispatch+2)
		d.Port = port
		for _, s := range c.schs {
			s.Dispatch(slot, &d, dispatch)
		}
	}
	c.w.at(issue, eventRec{kind: evIssue, arg: int32(slot)})
	// Memory uops hand over to the MOB once their address generation
	// issues; other uops hold their entry until writeback for replay.
	releaseAt := complete + 1
	if u.Class.IsMem() {
		releaseAt = issue + 1
	}
	c.w.at(releaseAt, eventRec{kind: evRelease, arg: int32(slot)})

	// Destination write-back and scoreboard.
	if dstPhys >= 0 {
		if u.Class.IsFP() {
			c.fready[dstPhys] = complete
			c.w.at(complete, eventRec{kind: evWriteFP, arg: int32(dstPhys), val: u.DstVal, ext: u.DstExt})
		} else {
			c.ready[dstPhys] = complete
			c.w.at(complete, eventRec{kind: evWriteInt, arg: int32(dstPhys), val: u.DstVal})
		}
	}

	// In-order retirement frees the ROB slot and the previous physical
	// register of the destination's architectural register.
	retire := complete
	if retire < c.lastRetire {
		retire = c.lastRetire
	}
	if retire == c.retiredAt && c.retiredThis >= c.cfg.RetireWidth {
		retire++
	}
	if retire != c.retiredAt {
		c.retiredAt = retire
		c.retiredThis = 0
	}
	c.retiredThis++
	c.lastRetire = retire
	retireKind := evRetireInt
	if u.Class.IsFP() {
		retireKind = evRetireFP
	}
	c.w.at(retire, eventRec{kind: retireKind, arg: int32(prevPhys)})
}

// fire executes one event record; the wheel invokes it in time order.
// Handlers never schedule further events, which keeps the wheel's firing
// walk simple.
func (c *Core) fire(r eventRec) {
	switch r.kind {
	case evIssue:
		for _, s := range c.schs {
			s.MarkReady(int(r.arg), true, true, r.time)
			s.Issue(int(r.arg), r.time)
		}
	case evRelease:
		c.slotFree.push(int(r.arg))
		for _, s := range c.schs {
			s.Release(int(r.arg), r.time)
		}
	case evWriteInt:
		write(c.intRFs, int(r.arg), r.val, 0, r.time)
	case evWriteFP:
		write(c.fpRFs, int(r.arg), r.val, uint64(r.ext), r.time)
	case evRetireInt:
		c.robCount--
		if r.arg >= 0 {
			c.ready[r.arg] = 0
			release(&c.intFree, c.intRFs, int(r.arg), r.time)
		}
	case evRetireFP:
		c.robCount--
		if r.arg >= 0 {
			c.fready[r.arg] = 0
			release(&c.fpFree, c.fpRFs, int(r.arg), r.time)
		}
	}
}

// destAvailable reports whether the uop's destination register file has a
// free entry.
func (c *Core) destAvailable(u *trace.Uop) bool {
	if u.Dst < 0 {
		return true
	}
	if u.Class.IsFP() {
		return !c.fpFree.empty()
	}
	return !c.intFree.empty()
}

// lookupSrc renames a source register, returning its physical tag and
// ready cycle.
func (c *Core) lookupSrc(u *trace.Uop, src int) (phys int, readyAt uint64) {
	if src < 0 {
		return -1, 0
	}
	if u.Class.IsFP() {
		phys = c.fpRAT[src%trace.NumFPRegs]
		return phys, c.fready[phys]
	}
	phys = c.intRAT[src%trace.NumIntRegs]
	return phys, c.ready[phys]
}

// pickAdder chooses an adder per the configured policy.
func (c *Core) pickAdder(issue uint64) int {
	switch c.cfg.AdderPolicy {
	case AdderPriority:
		for i, free := range c.adderFree {
			if free <= issue {
				return i
			}
		}
		// All busy: the earliest-free one.
		best, bestFree := 0, c.adderFree[0]
		for i, free := range c.adderFree {
			if free < bestFree {
				best, bestFree = i, free
			}
		}
		return best
	default: // uniform round-robin
		a := c.adderRR
		c.adderRR = (c.adderRR + 1) % len(c.adderFree)
		return a
	}
}

// Package cache models set-associative caches and TLBs with the
// invalidate-and-invert NBTI mechanisms of paper §3.2.1.
//
// A fraction K of the lines is kept invalid with inverted contents so the
// PMOS transistors of the data and tag arrays degrade evenly. The package
// implements the granularities and policies the paper evaluates:
//
//   - SetFixed:  K of the sets are disabled (rotating at coarse periods);
//     the cache effectively shrinks.
//   - WayFixed:  K of the ways are disabled (rotating); associativity and
//     capacity shrink.
//   - LineFixed: an INVCOUNT counter tracks inverted lines; whenever it
//     falls below the target, the LRU line of a random set is invalidated
//     and inverted through an available write port.
//   - LineDynamic: LineFixed plus the §3.2.1 monitor — shadow bits mark
//     lines that would have been inverted, hits on them count as induced
//     extra misses, and the mechanism is deactivated for a period when
//     the induced miss rate exceeds a threshold.
//
// Accesses carry the current cycle so the package can integrate the
// inverted-line fraction over time; that fraction is what balances cell
// bias (§4.6: bias drops from ~90% to ~50%).
package cache

import (
	"fmt"
	"math/rand"
)

// Scheme selects the inversion mechanism.
type Scheme int

// Inversion schemes of §3.2.1 plus the unprotected baseline.
const (
	SchemeNone Scheme = iota
	SchemeSetFixed
	SchemeWayFixed
	SchemeLineFixed
	SchemeLineDynamic
)

var schemeNames = map[Scheme]string{
	SchemeNone: "none", SchemeSetFixed: "SetFixed", SchemeWayFixed: "WayFixed",
	SchemeLineFixed: "LineFixed", SchemeLineDynamic: "LineDynamic",
}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Options configures the inversion mechanism of a cache.
type Options struct {
	Scheme Scheme

	// InvertRatio is K: the target fraction of lines (or sets, or ways)
	// kept invalid and inverted. The paper uses 0.5 for the fixed
	// schemes and 0.6 for the dynamic one.
	InvertRatio float64

	// RotatePeriod is the coarse period, in cycles, at which SetFixed
	// and WayFixed rotate which sets/ways are inverted. 0 disables
	// rotation.
	RotatePeriod uint64

	// Dynamic-monitor parameters (§3.2.1, §4.6): every PeriodCycles the
	// cache warms up for WarmupCycles, measures induced extra misses
	// with shadow bits for TestCycles, and deactivates the mechanism
	// for the rest of the period if extraMisses/accesses exceeds
	// MissThreshold.
	PeriodCycles  uint64
	WarmupCycles  uint64
	TestCycles    uint64
	MissThreshold float64

	// PortFreeProb is the probability a write port is available for a
	// maintenance inversion on a given attempt; unavailable ports defer
	// the inversion, which the paper notes is harmless (§3.2).
	PortFreeProb float64

	// Seed drives the random set selection; runs are deterministic.
	Seed int64
}

// DefaultDynamicOptions returns the §4.6 monitor configuration: 200K
// warm-up, 200K test window, 10M period and the given miss threshold.
func DefaultDynamicOptions(ratio, threshold float64, seed int64) Options {
	return Options{
		Scheme:        SchemeLineDynamic,
		InvertRatio:   ratio,
		PeriodCycles:  10_000_000,
		WarmupCycles:  200_000,
		TestCycles:    200_000,
		MissThreshold: threshold,
		PortFreeProb:  1,
		Seed:          seed,
	}
}

// Stats accumulates cache behaviour.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64

	// HitWayRank histograms hits by position in the set's MRU stack:
	// index 0 is the MRU line. §3.2.1 reports 90% of DL0 hits at MRU.
	HitWayRank []uint64

	// MaintenanceDeferred counts invert-and-invalidate attempts deferred
	// for lack of a write port or a valid victim.
	MaintenanceDeferred uint64

	// InvertedLineTime integrates inverted-lines×cycles; divided by
	// ObservedCycles×lines it yields the average inverted fraction.
	InvertedLineTime uint64
	ObservedCycles   uint64

	// Monitor statistics (LineDynamic only).
	MonitorWindows     uint64
	MonitorDeactivated uint64
	InducedExtraMisses uint64
}

// MissRate returns misses per access.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MRUHitFraction returns the fraction of hits found at stack position
// rank or better.
func (s *Stats) MRUHitFraction(rank int) float64 {
	if s.Hits == 0 {
		return 0
	}
	var n uint64
	for i := 0; i <= rank && i < len(s.HitWayRank); i++ {
		n += s.HitWayRank[i]
	}
	return float64(n) / float64(s.Hits)
}

// AvgInvertedFraction returns the time-averaged fraction of lines held
// inverted, over the lines the scheme manages.
func (s *Stats) AvgInvertedFraction(lines int) float64 {
	if s.ObservedCycles == 0 || lines == 0 {
		return 0
	}
	return float64(s.InvertedLineTime) / float64(s.ObservedCycles) / float64(lines)
}

type line struct {
	tag      uint64
	valid    bool
	inverted bool // invalid with inverted repair contents
	shadow   bool // monitor: would be inverted if mechanism were active
}

// Cache is a set-associative cache or TLB with an optional inversion
// mechanism.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	opt       Options

	lines []line  // sets*ways
	order []uint8 // per-set MRU order, MRU first: order[set*ways+i] = way

	rng        *rand.Rand
	stats      Stats
	lastCycle  uint64
	invCount   int // currently inverted lines
	rotEpoch   uint64
	active     bool // mechanism currently active (dynamic scheme)
	mon        monitor
	setMask    uint64
	activeSets int // SetFixed: number of usable sets
	activeWays int // WayFixed: number of usable ways
	wayRot     int // WayFixed: rotation offset
	setRot     int // SetFixed: rotation offset
}

// New builds a cache of sizeBytes bytes with lineBytes lines and the
// given associativity. Sizes must make sets a power of two.
func New(sizeBytes, lineBytes, ways int, opt Options) *Cache {
	if lineBytes <= 0 || sizeBytes <= 0 || ways <= 0 {
		panic("cache: sizes must be positive")
	}
	lines := sizeBytes / lineBytes
	if lines%ways != 0 {
		panic("cache: lines not divisible by ways")
	}
	sets := lines / ways
	if sets&(sets-1) != 0 || sets == 0 {
		panic("cache: set count must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	if 1<<shift != lineBytes {
		panic("cache: line size must be a power of two")
	}
	return newCache(sets, ways, shift, opt)
}

// NewTLB builds a TLB with the given entry count and associativity over
// pageBytes pages.
func NewTLB(entries, ways, pageBytes int, opt Options) *Cache {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("cache: invalid TLB shape")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("cache: TLB set count must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	if 1<<shift != pageBytes {
		panic("cache: page size must be a power of two")
	}
	return newCache(sets, ways, shift, opt)
}

func newCache(sets, ways int, shift uint, opt Options) *Cache {
	if ways > 255 {
		panic("cache: too many ways")
	}
	if opt.InvertRatio < 0 || opt.InvertRatio > 1 {
		panic("cache: invert ratio must be in [0,1]")
	}
	if opt.PortFreeProb == 0 {
		opt.PortFreeProb = 1
	}
	c := &Cache{
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		opt:       opt,
		lines:     make([]line, sets*ways),
		order:     make([]uint8, sets*ways),
		setMask:   uint64(sets - 1),
	}
	c.stats.HitWayRank = make([]uint64, ways)
	if c.lineScheme() {
		// Only the line-granularity schemes draw random numbers (initial
		// inversion, maintenance and the dynamic monitor's shadow lines),
		// and seeding a source is a measurable share of a short run.
		c.rng = rand.New(rand.NewSource(opt.Seed + 1))
	}
	c.start()
	return c
}

// Reset returns the cache to the state New built: every line invalid,
// the statistics zeroed (HitWayRank keeps its backing array, so callers
// holding a copy of Stats must clone it first) and the inversion scheme
// re-armed from its seed. A reset cache replays an access stream exactly
// as a fresh one does, without allocating.
func (c *Cache) Reset() {
	hits := c.stats.HitWayRank
	clear(hits)
	*c = Cache{
		sets:      c.sets,
		ways:      c.ways,
		lineShift: c.lineShift,
		opt:       c.opt,
		lines:     c.lines,
		order:     c.order,
		rng:       c.rng,
		stats:     Stats{HitWayRank: hits},
		setMask:   c.setMask,
	}
	clear(c.lines)
	if c.rng != nil {
		c.rng.Seed(c.opt.Seed + 1)
	}
	c.start()
}

// start arms a cache whose lines are all invalid: identity MRU order in
// every set, then the scheme's initial state.
func (c *Cache) start() {
	c.active = c.opt.Scheme != SchemeNone
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			c.order[s*c.ways+w] = uint8(w)
		}
	}
	c.configureScheme()
}

// Lines returns the total line count.
func (c *Cache) Lines() int { return c.sets * c.ways }

// Stats exposes the accumulated statistics.
func (c *Cache) Stats() *Stats { return &c.stats }

func (c *Cache) configureScheme() {
	switch c.opt.Scheme {
	case SchemeNone:
		c.activeSets = c.sets
		c.activeWays = c.ways
	case SchemeSetFixed:
		c.activeSets = c.sets - int(float64(c.sets)*c.opt.InvertRatio)
		if c.activeSets < 1 {
			c.activeSets = 1
		}
		c.activeWays = c.ways
		c.markDisabledSets()
	case SchemeWayFixed:
		c.activeWays = c.ways - int(float64(c.ways)*c.opt.InvertRatio)
		if c.activeWays < 1 {
			c.activeWays = 1
		}
		c.activeSets = c.sets
		c.markDisabledWays()
	case SchemeLineFixed:
		c.activeSets = c.sets
		c.activeWays = c.ways
		// Start with the target fraction inverted, spread over sets; at
		// construction everything is invalid, so lines are picked
		// directly.
		target := c.targetInverted()
		guard := 64 * c.sets * c.ways
		for target > 0 && guard > 0 {
			guard--
			s := c.rng.Intn(c.sets)
			w := c.rng.Intn(c.ways)
			l := &c.lines[s*c.ways+w]
			if l.inverted {
				continue
			}
			l.valid = false
			l.inverted = true
			c.invCount++
			target--
		}
	case SchemeLineDynamic:
		c.activeSets = c.sets
		c.activeWays = c.ways
		if c.opt.PeriodCycles == 0 {
			panic("cache: LineDynamic needs PeriodCycles > 0")
		}
		// The mechanism starts off; the first monitor window decides
		// whether to engage it (§3.2.1).
		c.active = false
	}
}

func (c *Cache) targetInverted() int {
	return int(float64(c.sets*c.ways)*c.opt.InvertRatio + 0.5)
}

// markDisabledSets (re)marks the inverted set range for SetFixed.
func (c *Cache) markDisabledSets() {
	c.invCount = 0
	for s := 0; s < c.sets; s++ {
		disabled := c.setDisabled(s)
		for w := 0; w < c.ways; w++ {
			l := &c.lines[s*c.ways+w]
			l.inverted = disabled
			if disabled {
				l.valid = false
				c.invCount++
			}
		}
	}
}

func (c *Cache) setDisabled(s int) bool {
	// Sets [setRot, setRot+activeSets) mod sets are live.
	rel := (s - c.setRot + c.sets) % c.sets
	return rel >= c.activeSets
}

// markDisabledWays (re)marks the inverted ways for WayFixed.
func (c *Cache) markDisabledWays() {
	c.invCount = 0
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			disabled := c.wayDisabled(w)
			l := &c.lines[s*c.ways+w]
			l.inverted = disabled
			if disabled {
				l.valid = false
				c.invCount++
			}
		}
	}
}

func (c *Cache) wayDisabled(w int) bool {
	rel := (w - c.wayRot + c.ways) % c.ways
	return rel >= c.activeWays
}

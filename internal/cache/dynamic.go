package cache

// monitor implements the §3.2.1 dynamic-ratio controller for
// LineDynamic: each period it warms the cache up, marks shadow lines that
// would be inverted, counts hits on them as induced extra misses, and
// activates or deactivates the mechanism for the rest of the period based
// on a threshold.
type monitor struct {
	phase        monitorPhase
	phaseStart   uint64
	periodStart  uint64
	windowBase   uint64 // accesses at test-window start
	extraBase    uint64 // induced extra misses at test-window start
	shadowCount  int
	shadowTarget int
}

type monitorPhase int

const (
	phaseWarmup monitorPhase = iota
	phaseTest
	phaseRun
)

// stepMonitor advances the monitor state machine to the given cycle.
func (c *Cache) stepMonitor(cycle uint64) {
	m := &c.mon
	opt := &c.opt
	if opt.PeriodCycles == 0 {
		return
	}
	// Start a new period: switch the mechanism off so the shadow-bit
	// measurement observes the cache "without actually performing"
	// the inversion (§3.2.1).
	if cycle-m.periodStart >= opt.PeriodCycles {
		m.periodStart = cycle - (cycle-m.periodStart)%opt.PeriodCycles
		m.phase = phaseWarmup
		m.phaseStart = m.periodStart
		if c.active {
			c.releaseInverted()
		}
		c.active = false
		c.clearShadows()
		c.stats.MonitorWindows++
	}
	switch m.phase {
	case phaseWarmup:
		if cycle-m.phaseStart >= opt.WarmupCycles {
			m.phase = phaseTest
			m.phaseStart = cycle
			m.windowBase = c.stats.Accesses
			m.extraBase = c.stats.InducedExtraMisses
			m.shadowTarget = c.targetInverted()
			m.shadowCount = 0
			c.seedShadows()
		}
	case phaseTest:
		if cycle-m.phaseStart >= opt.TestCycles {
			accesses := c.stats.Accesses - m.windowBase
			extra := c.stats.InducedExtraMisses - m.extraBase
			rate := 0.0
			if accesses > 0 {
				rate = float64(extra) / float64(accesses)
			}
			c.active = rate <= opt.MissThreshold
			if !c.active {
				c.stats.MonitorDeactivated++
			}
			c.clearShadows()
			m.phase = phaseRun
			m.phaseStart = cycle
		}
	case phaseRun:
		// maintain() rebuilds the inverted pool while active; nothing
		// to do here until the next period begins.
	}
}

// seedShadows marks the would-be-inverted lines for the test window, up
// to the target count, mirroring how the live mechanism picks victims:
// invalid lines first (whose hypothetical inversion costs nothing — they
// can never be hit), then LRU valid lines.
func (c *Cache) seedShadows() {
	m := &c.mon
	attempts := 0
	for m.shadowCount < m.shadowTarget && attempts < 8*c.sets*c.ways {
		attempts++
		s := c.rng.Intn(c.sets)
		w := c.shadowCandidate(s)
		if w < 0 {
			continue
		}
		c.lines[s*c.ways+w].shadow = true
		m.shadowCount++
	}
}

// markShadowLine replaces a consumed shadow mark with a fresh one so the
// hypothetical inverted-line count stays at target during the window.
func (c *Cache) markShadowLine() {
	if c.mon.phase != phaseTest {
		return
	}
	c.mon.shadowCount--
	for tries := 0; tries < 8; tries++ {
		s := c.rng.Intn(c.sets)
		w := c.shadowCandidate(s)
		if w < 0 {
			continue
		}
		c.lines[s*c.ways+w].shadow = true
		c.mon.shadowCount++
		return
	}
}

// shadowCandidate mirrors invertCandidate for the hypothetical pool:
// invalid non-inverted non-shadow lines first, then LRU valid non-shadow
// lines. Returns -1 if the set is exhausted.
func (c *Cache) shadowCandidate(set int) int {
	base := set * c.ways
	for rank := c.ways - 1; rank >= 0; rank-- {
		w := int(c.order[base+rank])
		l := &c.lines[base+w]
		if !l.valid && !l.inverted && !l.shadow {
			return w
		}
	}
	for rank := c.ways - 1; rank >= 0; rank-- {
		w := int(c.order[base+rank])
		l := &c.lines[base+w]
		if l.valid && !l.shadow {
			return w
		}
	}
	return -1
}

// clearShadows removes all shadow marks.
func (c *Cache) clearShadows() {
	for i := range c.lines {
		c.lines[i].shadow = false
	}
	c.mon.shadowCount = 0
}

// releaseInverted returns inverted lines to the free pool when the
// mechanism deactivates: they stay invalid but stop being counted or
// replenished, so demand fills reclaim them naturally.
func (c *Cache) releaseInverted() {
	for i := range c.lines {
		if c.lines[i].inverted {
			c.lines[i].inverted = false
		}
	}
	c.invCount = 0
}

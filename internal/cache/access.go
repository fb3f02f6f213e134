package cache

// Access looks up addr at the given cycle, allocating on miss, and
// reports whether it hit. Cycle values must be non-decreasing across
// calls; they drive inverted-time integration, set/way rotation and the
// dynamic monitor.
func (c *Cache) Access(addr uint64, cycle uint64) bool {
	c.advance(cycle)
	c.stats.Accesses++

	set := c.mapSet(addr)
	tag := addr >> c.lineShift

	// Probe in MRU order so the hit rank histogram falls out directly.
	base := set * c.ways
	hitRank := -1
	var hitWay int
	for rank := 0; rank < c.ways; rank++ {
		w := int(c.order[base+rank])
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			hitRank, hitWay = rank, w
			break
		}
	}

	if hitRank >= 0 {
		c.stats.Hits++
		c.stats.HitWayRank[hitRank]++
		l := &c.lines[base+hitWay]
		if l.shadow {
			// Monitor: this line would have been inverted; the hit
			// would have been a miss (§3.2.1).
			c.stats.InducedExtraMisses++
			l.shadow = false
			c.markShadowLine()
		}
		c.touch(set, hitWay)
		c.maintain(set)
		return true
	}

	c.stats.Misses++
	w := c.victimWay(set, false)
	l := &c.lines[base+w]
	if l.inverted {
		// Refilling an inverted line: restore the ratio by inverting a
		// different valid line (LineFixed/LineDynamic refill rule).
		l.inverted = false
		c.invCount--
	}
	if l.shadow {
		l.shadow = false
		c.markShadowLine()
	}
	l.valid = true
	l.tag = tag
	c.touch(set, w)
	c.maintain(set)
	return false
}

// mapSet computes the effective set index, folding disabled sets for
// SetFixed into the live window.
func (c *Cache) mapSet(addr uint64) int {
	set := int((addr >> c.lineShift) & c.setMask)
	if c.opt.Scheme == SchemeSetFixed && c.active {
		set = c.setRot + set%c.activeSets
		if set >= c.sets {
			set -= c.sets
		}
	}
	return set
}

// victimWay picks the replacement victim in a set: the least recent
// eligible line, preferring invalid ones. onlyValid selects only valid
// lines (used when picking a line to invert). Returns -1 if no candidate
// exists.
func (c *Cache) victimWay(set int, onlyValid bool) int {
	base := set * c.ways
	if !onlyValid {
		// Prefer the LRU-most invalid line.
		for rank := c.ways - 1; rank >= 0; rank-- {
			w := int(c.order[base+rank])
			if c.wayEligible(w) && !c.lines[base+w].valid {
				return w
			}
		}
	}
	for rank := c.ways - 1; rank >= 0; rank-- {
		w := int(c.order[base+rank])
		if !c.wayEligible(w) {
			continue
		}
		if onlyValid && !c.lines[base+w].valid {
			continue
		}
		return w
	}
	return -1
}

func (c *Cache) wayEligible(w int) bool {
	if c.opt.Scheme == SchemeWayFixed && c.active {
		return !c.wayDisabled(w)
	}
	return true
}

// touch moves way w to the MRU position of its set. Most hits land on
// the line that is already MRU (the MRU study measures ~90%), so that
// case returns before any scan or shift.
func (c *Cache) touch(set, w int) {
	base := set * c.ways
	if int(c.order[base]) == w {
		return
	}
	pos := 1
	for ; pos < c.ways; pos++ {
		if int(c.order[base+pos]) == w {
			break
		}
	}
	copy(c.order[base+1:base+pos+1], c.order[base:base+pos])
	c.order[base] = uint8(w)
}

// maintain restores the inverted-line count toward the target for the
// line-granularity schemes: when INVCOUNT is below INVTHRESHOLD and a
// write port is free, a line of a random set is invalidated and inverted
// (§3.2.1). Lines that are already invalid are preferred — rewriting
// useless contents costs nothing — and otherwise the LRU valid line is
// sacrificed, since "most of the cache access hits occur in the MRU
// position".
func (c *Cache) maintain(_ int) {
	if !c.lineScheme() || !c.active {
		return
	}
	target := c.targetInverted()
	if c.invCount >= target {
		return
	}
	if c.opt.PortFreeProb < 1 && c.rng.Float64() >= c.opt.PortFreeProb {
		c.stats.MaintenanceDeferred++
		return
	}
	// "To select the cache line to be inverted, we can use the
	// information provided by the replacement policy and pick those
	// cache lines that will be replaced earlier" (§3.2.1): sample a few
	// random sets and prefer one offering a free (invalid) line, then
	// one whose LRU victim is not also its MRU line — sacrificing a
	// set's only live line is what hurts.
	bestSet, bestWay, bestClass := -1, -1, 3
	for probe := 0; probe < 4 && bestClass > 0; probe++ {
		s := c.rng.Intn(c.sets)
		w := c.invertCandidate(s)
		if w < 0 {
			continue
		}
		class := 2
		l := &c.lines[s*c.ways+w]
		if !l.valid {
			class = 0 // free inversion
		} else if int(c.order[s*c.ways]) != w {
			class = 1 // LRU valid line that is not the MRU
		}
		if class < bestClass {
			bestSet, bestWay, bestClass = s, w, class
		}
	}
	if bestSet < 0 {
		c.stats.MaintenanceDeferred++
		return
	}
	l := &c.lines[bestSet*c.ways+bestWay]
	l.valid = false
	l.inverted = true
	c.invCount++
}

// invertCandidate picks the line of a set to invert next: an invalid
// not-yet-inverted line if one exists (free), else the LRU valid line.
// Returns -1 when every line is already inverted.
func (c *Cache) invertCandidate(set int) int {
	base := set * c.ways
	for rank := c.ways - 1; rank >= 0; rank-- {
		w := int(c.order[base+rank])
		l := &c.lines[base+w]
		if !l.valid && !l.inverted {
			return w
		}
	}
	for rank := c.ways - 1; rank >= 0; rank-- {
		w := int(c.order[base+rank])
		if c.lines[base+w].valid {
			return w
		}
	}
	return -1
}

func (c *Cache) lineScheme() bool {
	return c.opt.Scheme == SchemeLineFixed || c.opt.Scheme == SchemeLineDynamic
}

// advance integrates time-weighted statistics, rotates fixed schemes and
// steps the dynamic monitor.
func (c *Cache) advance(cycle uint64) {
	if cycle > c.lastCycle {
		dt := cycle - c.lastCycle
		c.stats.InvertedLineTime += uint64(c.invCount) * dt
		c.stats.ObservedCycles += dt
		c.lastCycle = cycle
	}
	c.rotate(cycle)
	if c.opt.Scheme == SchemeLineDynamic {
		c.stepMonitor(cycle)
	}
}

// rotate advances the inverted set/way window at coarse periods so all
// cells age evenly (§3.2.1 "selected in a round-robin fashion at coarse
// time periods").
func (c *Cache) rotate(cycle uint64) {
	if c.opt.RotatePeriod == 0 {
		return
	}
	epoch := cycle / c.opt.RotatePeriod
	if epoch == c.rotEpoch {
		return
	}
	c.rotEpoch = epoch
	switch c.opt.Scheme {
	case SchemeSetFixed:
		c.setRot = (c.setRot + 1) % c.sets
		c.markDisabledSets()
	case SchemeWayFixed:
		c.wayRot = (c.wayRot + 1) % c.ways
		c.markDisabledWays()
	}
}

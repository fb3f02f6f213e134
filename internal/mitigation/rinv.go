package mitigation

// RINV is the per-structure repair register of §3.2: it holds the value
// written into entries when they are released. For ISV fields it stores
// inverted sampled values refreshed periodically from a write port; for
// ALL1/ALL0/ALL1-K% fields its bits are driven constant or by a duty
// counter.
type RINV struct {
	mask   uint64
	value  uint64
	period uint64 // refresh period in cycles (0 = refresh on every offer)
	nextAt uint64 // next cycle at which a sample is accepted
}

// NewRINV returns a repair register of the given width (1..64 bits)
// refreshed at most once per period cycles. The paper refreshes "every
// one million cycles" for caches and every few thousands for the
// scheduler; pass 0 to accept every offered sample.
func NewRINV(width int, period uint64) *RINV {
	if width < 1 || width > 64 {
		panic("mitigation: RINV width must be in [1, 64]")
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<uint(width) - 1
	}
	return &RINV{mask: mask, period: period}
}

// Reset returns the register to its built state: zero contents, the
// next offer accepted.
func (r *RINV) Reset() { r.value, r.nextAt = 0, 0 }

// Offer presents a value flowing through a write port at the given cycle.
// If the refresh period has elapsed, RINV captures the inverted value.
// It returns true when the sample was taken.
func (r *RINV) Offer(value uint64, cycle uint64) bool {
	if cycle < r.nextAt {
		return false
	}
	r.value = ^value & r.mask
	r.nextAt = cycle + r.period
	return true
}

// Value returns the current repair value (the inversion of the last
// sampled data).
func (r *RINV) Value() uint64 { return r.value }

// DutyCounter drives an ALL1-K% (or ALL0-K%) bit: a small free-running
// counter whose output is high for K% of its period (§4.5 uses four
// counters of up to 5 bits for K = 50, 60, 75 and 95%).
type DutyCounter struct {
	period int
	high   int
	pos    int
}

// NewDutyCounter returns a counter with the given period (2..32, the
// paper's "up to 5 bits") outputting 1 for round(k·period) ticks per
// revolution.
func NewDutyCounter(period int, k float64) *DutyCounter {
	if period < 2 || period > 32 {
		panic("mitigation: duty counter period must be in [2, 32]")
	}
	if k < 0 || k > 1 {
		panic("mitigation: duty must be in [0, 1]")
	}
	high := int(k*float64(period) + 0.5)
	return &DutyCounter{period: period, high: high}
}

// Reset rewinds the counter to the start of its period.
func (c *DutyCounter) Reset() { c.pos = 0 }

// Output returns the current level without advancing.
func (c *DutyCounter) Output() bool { return c.pos < c.high }

// Tick returns the current level and advances the counter.
func (c *DutyCounter) Tick() bool {
	out := c.Output()
	c.pos++
	if c.pos >= c.period {
		c.pos = 0
	}
	return out
}

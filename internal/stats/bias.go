package stats

import "math/bits"

// BitBias accumulates, per bit position, the time a stored value held a
// logic "0" versus a logic "1". This is the quantity NBTI degradation
// depends on: the zero-signal probability at the gate of the PMOS
// transistor driven by that bit (paper §1.1, §2.1).
//
// Callers report intervals: Observe(value, dt) states that value was held
// for dt cycles. ObserveFree(dt) states the tracked cell was unoccupied
// for dt cycles; free time is accounted separately so callers can compute
// bias over busy time only, or over total time with an assumed idle value.
// Internally the tracker counts the cycles each bit held "1" and walks
// whichever side of the value is sparser: the set bits for the
// workload's zero-biased data, the zero bits (with a subtractive dense
// credit) for ones-dense values like ISV-inverted repair contents. Every
// interval therefore costs at most width/2 counter updates, and zero
// time falls out exactly as total time minus one time. The counters are
// exact under uint64 modular arithmetic: a dense interval stores
// trueOnes-dt per zero bit and dt in the dense scalar, which the readers
// re-add, so wraparound cancels.
type BitBias struct {
	bits      int
	mask      uint64   // low `bits` set: the tracked positions
	oneBusy   []uint64 // cycles each bit held "1" while busy, minus denseBusy
	busyTime  uint64   // total busy cycles observed
	freeTime  uint64   // total free cycles observed
	oneFree   []uint64 // cycles each bit held "1" while free, minus denseFree
	denseBusy uint64   // busy cycles credited to every bit at read time
	denseFree uint64   // free cycles credited to every bit at read time
}

// NewBitBias returns a tracker for values of the given width in bits.
// Width must be in [1, 64].
func NewBitBias(bits int) *BitBias {
	if bits < 1 || bits > 64 {
		panic("stats: BitBias width must be in [1, 64]")
	}
	return &BitBias{
		bits:    bits,
		mask:    ^uint64(0) >> uint(64-bits),
		oneBusy: make([]uint64, bits),
		oneFree: make([]uint64, bits),
	}
}

// addOnes credits dt to the one-time of every set bit of value, choosing
// the shorter walk: set bits directly when they are the minority, or the
// dense scalar plus a subtractive walk over the zero bits otherwise. It
// returns the dense credit (dt or 0) for the caller's scalar.
func addOnes(counts []uint64, value, mask, dt uint64, width int) (dense uint64) {
	v := value & mask
	if 2*bits.OnesCount64(v) <= width {
		for m := v; m != 0; m &= m - 1 {
			counts[bits.TrailingZeros64(m)] += dt
		}
		return 0
	}
	for m := ^v & mask; m != 0; m &= m - 1 {
		counts[bits.TrailingZeros64(m)] -= dt
	}
	return dt
}

// Observe records that value was held for dt cycles while busy.
func (b *BitBias) Observe(value uint64, dt uint64) {
	if dt == 0 {
		return
	}
	b.busyTime += dt
	b.denseBusy += addOnes(b.oneBusy, value, b.mask, dt, b.bits)
}

// ObserveFree records that the cell held value for dt cycles while the
// entry was logically free (released). The physical cell still stores
// something — typically stale data or an NBTI-repair value — and its bits
// degrade all the same, which is exactly what the ISV mechanism exploits.
func (b *BitBias) ObserveFree(value uint64, dt uint64) {
	if dt == 0 {
		return
	}
	b.freeTime += dt
	b.denseFree += addOnes(b.oneFree, value, b.mask, dt, b.bits)
}

// BusyTime returns the total busy cycles observed.
func (b *BitBias) BusyTime() uint64 { return b.busyTime }

// TotalTime returns busy plus free cycles.
func (b *BitBias) TotalTime() uint64 { return b.busyTime + b.freeTime }

// ZeroBias returns, for bit i, the fraction of *total* observed time the
// bit held "0" (busy and free intervals combined). Returns 0.5 when no
// time has been observed, the neutral value for NBTI purposes.
func (b *BitBias) ZeroBias(i int) float64 {
	total := b.busyTime + b.freeTime
	if total == 0 {
		return 0.5
	}
	ones := b.oneBusy[i] + b.denseBusy + b.oneFree[i] + b.denseFree
	return float64(total-ones) / float64(total)
}

// BusyZeroBias returns the fraction of busy time bit i held "0", or 0.5
// if no busy time was observed.
func (b *BitBias) BusyZeroBias(i int) float64 {
	if b.busyTime == 0 {
		return 0.5
	}
	return float64(b.busyTime-b.oneBusy[i]-b.denseBusy) / float64(b.busyTime)
}

// Biases returns ZeroBias for every bit, index 0 = least significant.
func (b *BitBias) Biases() []float64 {
	return b.AppendBiases(make([]float64, 0, b.bits))
}

// AppendBiases appends ZeroBias for every bit to dst and returns the
// extended slice, letting report builders size one backing array up
// front instead of allocating per tracker.
func (b *BitBias) AppendBiases(dst []float64) []float64 {
	for i := 0; i < b.bits; i++ {
		dst = append(dst, b.ZeroBias(i))
	}
	return dst
}

// WorstCellBias returns the highest per-cell stress bias across bits:
// max over bits of max(zeroBias, 1-zeroBias). This is the bias that sets
// the guardband for the structure (paper §3.2: one of the two PMOS in the
// cell is always under stress; the worse-balanced one fails first).
func (b *BitBias) WorstCellBias() float64 {
	worst := 0.5
	for i := 0; i < b.bits; i++ {
		z := b.ZeroBias(i)
		cell := z
		if 1-z > cell {
			cell = 1 - z
		}
		if cell > worst {
			worst = cell
		}
	}
	return worst
}

// Reset clears all accumulated time.
func (b *BitBias) Reset() {
	b.busyTime, b.freeTime = 0, 0
	b.denseBusy, b.denseFree = 0, 0
	for i := range b.oneBusy {
		b.oneBusy[i] = 0
		b.oneFree[i] = 0
	}
}

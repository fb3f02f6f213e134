package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-bucket histogram over a [lo, hi) range with
// uniform bucket width. Samples outside the range are clamped into the
// first or last bucket so totals are conserved.
type Histogram struct {
	lo, hi  float64
	buckets []uint64
	count   uint64
	sum     float64
}

// NewHistogram returns a histogram over [lo, hi) with n buckets.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{lo: lo, hi: hi, buckets: make([]uint64, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	idx := int(float64(len(h.buckets)) * (x - h.lo) / (h.hi - h.lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
	h.count++
	h.sum += x
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// FractionAbove returns the fraction of samples in buckets whose lower
// edge is >= x.
func (h *Histogram) FractionAbove(x float64) float64 {
	if h.count == 0 {
		return 0
	}
	width := (h.hi - h.lo) / float64(len(h.buckets))
	var n uint64
	for i, c := range h.buckets {
		if h.lo+float64(i)*width >= x {
			n += c
		}
	}
	return float64(n) / float64(h.count)
}

// String renders a compact ASCII sketch of the histogram, one row per
// bucket, suitable for experiment logs.
func (h *Histogram) String() string {
	var sb strings.Builder
	width := (h.hi - h.lo) / float64(len(h.buckets))
	var maxC uint64
	for _, c := range h.buckets {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.buckets {
		bar := 0
		if maxC > 0 {
			bar = int(40 * c / maxC)
		}
		fmt.Fprintf(&sb, "[%8.3f,%8.3f) %8d %s\n",
			h.lo+float64(i)*width, h.lo+float64(i+1)*width, c,
			strings.Repeat("#", bar))
	}
	return sb.String()
}

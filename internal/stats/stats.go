// Package stats provides the statistical accumulators shared by the
// Penelope simulation modules: per-bit value-bias trackers, occupancy and
// port-availability counters, and small numeric helpers.
//
// All accumulators are event driven: callers report intervals (a value held
// for dt cycles) rather than sampling every cycle, so tracking a structure
// with hundreds of entries stays cheap.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// GeoMean returns the geometric mean of xs. All elements must be positive;
// non-positive elements are skipped. Returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Ratio formats a fraction as a percentage string with one decimal,
// e.g. Ratio(0.0745) == "7.5%". Useful for experiment table output.
func Ratio(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}

// Counter is a labelled monotonic event counter.
type Counter struct {
	Name  string
	Count uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.Count += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Count++ }

// Fraction returns c.Count / total, or 0 when total is zero.
func (c *Counter) Fraction(total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c.Count) / float64(total)
}

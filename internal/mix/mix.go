// Package mix holds the repository's one stateless random-draw
// primitive and the one retry-backoff policy built on it. Every
// seeded decision outside the simulator's trace generators — chip
// process variation, injected disk and runner faults, sink failures,
// load shedding, retry jitter — draws from SplitMix64 keyed on a seed
// and a counter, so the same seed replays the same schedule regardless
// of goroutine interleaving.
package mix

import (
	"math"
	"time"
)

// golden is 2^64/φ, SplitMix64's state increment.
const golden = 0x9e3779b97f4a7c15

// SplitMix64 is the SplitMix64 finalizer of Steele, Lea and Flood: one
// invertible, well-mixed permutation of x. Iterating it is a counter
// stream; applying it to (seed + counter) is a stateless keyed draw.
func SplitMix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 maps a 64-bit draw to [0,1) from its top 53 bits.
func Float64(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Keyed is the uniform [0,1) draw for the n-th decision about id under
// seed: SplitMix64 over the seed, an FNV-1a digest of id and the
// golden-ratio-scaled counter.
func Keyed(seed uint64, id string, n uint64) float64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return Float64(SplitMix64(seed ^ h ^ (n * golden)))
}

// maxBase bounds a delay before jitter so base plus 50% jitter still
// fits in a time.Duration.
const maxBase = float64(math.MaxInt64 / 2)

// Backoff is the capped-exponential retry policy: attempt n (0-based)
// waits Base·2^n, capped at Cap, plus up to 50% jitter keyed on
// (Seed, id, n) — the same id retries on the same schedule in every
// run, while concurrent ids decorrelate. A Cap that is unset or too
// large for jitter to fit in a Duration falls back to the largest that
// does, so no attempt count overflows.
type Backoff struct {
	Base time.Duration
	Cap  time.Duration
	Seed uint64
}

// Delay returns the wait before retry attempt n of id.
func (b Backoff) Delay(id string, n int) time.Duration {
	limit := float64(b.Cap)
	if limit <= 0 || limit > maxBase {
		limit = maxBase
	}
	base := float64(b.Base) * math.Pow(2, float64(n))
	if base > limit {
		base = limit
	}
	jitter := Keyed(b.Seed, id, uint64(n)) * 0.5 * base
	return time.Duration(base + jitter)
}

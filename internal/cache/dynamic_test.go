package cache

import (
	"math/rand"
	"testing"
)

// dynOptions returns a fast monitor configuration for tests: 1K warmup,
// 1K test, 20K period.
func dynOptions(ratio, threshold float64, seed int64) Options {
	return Options{
		Scheme:        SchemeLineDynamic,
		InvertRatio:   ratio,
		PeriodCycles:  20_000,
		WarmupCycles:  1_000,
		TestCycles:    1_000,
		MissThreshold: threshold,
		PortFreeProb:  1,
		Seed:          seed,
	}
}

func TestDynamicActivatesForSmallWorkingSet(t *testing.T) {
	c := New(32*1024, 64, 8, dynOptions(0.6, 0.02, 1))
	rng := rand.New(rand.NewSource(4))
	// 4KB working set: inversion is harmless, monitor must engage it.
	for cyc := uint64(0); cyc < 100_000; cyc++ {
		c.Access(uint64(rng.Intn(64))*64, cyc)
	}
	if !c.active {
		t.Error("mechanism should be active for a cache-friendly program")
	}
	if c.invCount == 0 {
		t.Error("active mechanism should hold inverted lines")
	}
	if c.Stats().MonitorWindows == 0 {
		t.Error("monitor should have run windows")
	}
}

func TestDynamicDeactivatesForFullCacheUse(t *testing.T) {
	c := New(8*1024, 64, 8, dynOptions(0.6, 0.02, 2))
	rng := rand.New(rand.NewSource(6))
	// Working set equals the full cache: inverting 60% would hurt, the
	// monitor must see induced extra misses and deactivate.
	lines := c.Lines()
	deactivations := uint64(0)
	for cyc := uint64(0); cyc < 200_000; cyc++ {
		c.Access(uint64(rng.Intn(lines))*64, cyc)
		deactivations = c.Stats().MonitorDeactivated
	}
	if deactivations == 0 {
		t.Error("monitor never deactivated despite full cache pressure")
	}
}

func TestDynamicBeatsFixedOnHostileWorkload(t *testing.T) {
	// Table 3's point: LineDynamic60% loses less performance than
	// LineFixed50% on average because it backs off when a program uses
	// the whole cache.
	run := func(opt Options) float64 {
		c := New(8*1024, 64, 8, opt)
		rng := rand.New(rand.NewSource(13))
		lines := c.Lines()
		var misses int
		const n = 150_000
		for cyc := uint64(0); cyc < n; cyc++ {
			if !c.Access(uint64(rng.Intn(lines))*64, cyc) {
				misses++
			}
		}
		return float64(misses) / n
	}
	fixed := run(Options{Scheme: SchemeLineFixed, InvertRatio: 0.5, Seed: 9})
	dynamic := run(dynOptions(0.6, 0.02, 9))
	none := run(Options{Scheme: SchemeNone})
	// The monitor should fully back off, leaving the dynamic scheme at
	// (or extremely near) the unprotected miss rate, far below fixed.
	if dynamic > none+0.01 {
		t.Errorf("dynamic miss rate %.4f should approach baseline %.4f", dynamic, none)
	}
	if dynamic >= fixed/2 {
		t.Errorf("dynamic miss rate %.4f should be far below fixed %.4f", dynamic, fixed)
	}
}

func TestDynamicInvertedFractionNearTarget(t *testing.T) {
	// §4.6: "on average the number of cache lines inverted is slightly
	// above the desired 50%" with K=60% — for friendly programs the
	// mechanism is active nearly all the time.
	c := New(32*1024, 64, 8, dynOptions(0.6, 0.02, 3))
	rng := rand.New(rand.NewSource(8))
	for cyc := uint64(0); cyc < 300_000; cyc++ {
		c.Access(uint64(rng.Intn(64))*64, cyc)
	}
	frac := c.Stats().AvgInvertedFraction(c.Lines())
	if frac < 0.45 || frac > 0.62 {
		t.Errorf("avg inverted fraction = %.3f, want ≈ 0.5–0.6", frac)
	}
}

func TestShadowBitsCountExtraMisses(t *testing.T) {
	c := New(4096, 64, 4, dynOptions(0.6, 0.0, 5)) // threshold 0: always deactivate on any extra miss
	rng := rand.New(rand.NewSource(10))
	lines := c.Lines()
	for cyc := uint64(0); cyc < 100_000; cyc++ {
		c.Access(uint64(rng.Intn(lines))*64, cyc)
	}
	if c.Stats().InducedExtraMisses == 0 {
		t.Error("shadow bits should have recorded induced extra misses")
	}
	if c.active {
		t.Error("zero threshold must leave the mechanism off")
	}
}

func TestMonitorWindowsAdvance(t *testing.T) {
	c := New(4096, 64, 4, dynOptions(0.6, 0.02, 5))
	for cyc := uint64(0); cyc < 100_000; cyc += 10 {
		c.Access(uint64(cyc%64)*64, cyc)
	}
	if got := c.Stats().MonitorWindows; got < 4 {
		t.Errorf("monitor windows = %d, want ≥ 4 over 5 periods", got)
	}
}

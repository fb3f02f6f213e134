package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

func baseline(size, line, ways int) *Cache {
	return New(size, line, ways, Options{Scheme: SchemeNone})
}

func TestBasicHitMiss(t *testing.T) {
	c := baseline(1024, 64, 2) // 8 sets, 2 ways
	if c.Access(0x1000, 1) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0x1000, 2) {
		t.Fatal("second access must hit")
	}
	if c.Access(0x1040, 3) {
		t.Fatal("different line must miss")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v", *s)
	}
}

func TestGeometry(t *testing.T) {
	c := baseline(32*1024, 64, 8)
	if c.sets != 64 || c.ways != 8 || c.Lines() != 512 {
		t.Fatalf("32KB 8-way: sets=%d ways=%d lines=%d", c.sets, c.ways, c.Lines())
	}
	tlb := NewTLB(128, 8, 4096, Options{Scheme: SchemeNone})
	if tlb.sets != 16 || tlb.ways != 8 {
		t.Fatalf("128-entry 8-way TLB: sets=%d ways=%d", tlb.sets, tlb.ways)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 64, 8, Options{}) },
		func() { New(1000, 64, 8, Options{}) },     // 15 lines, not divisible
		func() { New(3*1024, 64, 8, Options{}) },   // 48 lines -> 6 sets, not pow2
		func() { New(1024, 60, 2, Options{}) },     // line not pow2
		func() { NewTLB(100, 8, 4096, Options{}) }, // 100 not divisible by 8
		func() { NewTLB(96, 8, 4096, Options{}) },  // 12 sets, not pow2
		func() { NewTLB(128, 8, 1000, Options{}) }, // page not pow2
		func() { New(1024, 64, 2, Options{InvertRatio: 1.5}) },
		func() { New(1024, 64, 2, Options{Scheme: SchemeLineDynamic}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLRUReplacement(t *testing.T) {
	c := baseline(256, 64, 4) // 1 set, 4 ways
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, uint64(i))
	}
	// Touch line 0 to make line 1 the LRU.
	c.Access(0, 10)
	// Fill a new line: must evict line 1.
	c.Access(4*64, 11)
	if !c.Access(0, 12) {
		t.Error("line 0 was MRU, must still be resident")
	}
	if c.Access(1*64, 13) {
		t.Error("line 1 was LRU, must have been evicted")
	}
}

func TestHitRankHistogram(t *testing.T) {
	c := baseline(512, 64, 8) // 1 set, 8 ways
	c.Access(0, 1)
	c.Access(0, 2) // MRU hit
	c.Access(64, 3)
	c.Access(0, 4) // hit at rank 1
	s := c.Stats()
	if s.HitWayRank[0] != 1 || s.HitWayRank[1] != 1 {
		t.Fatalf("rank histogram = %v", s.HitWayRank[:2])
	}
	if got := s.MRUHitFraction(0); got != 0.5 {
		t.Errorf("MRUHitFraction(0) = %v, want 0.5", got)
	}
	if got := s.MRUHitFraction(7); got != 1 {
		t.Errorf("MRUHitFraction(7) = %v, want 1", got)
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.MRUHitFraction(0) != 0 || s.AvgInvertedFraction(10) != 0 {
		t.Error("zero-value stats helpers should return 0")
	}
}

func TestSetFixedHalvesCapacity(t *testing.T) {
	opt := Options{Scheme: SchemeSetFixed, InvertRatio: 0.5}
	c := New(1024, 64, 2, opt) // 8 sets, 2 ways; 4 live sets
	if got := c.invCount; got != 8 {
		t.Fatalf("inverted lines = %d, want 8 (half the cache)", got)
	}
	// A working set equal to the full cache no longer fits: with 8
	// distinct sets mapped into 4 live ones, conflicts appear.
	misses := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 16; i++ {
			if !c.Access(uint64(i)*64, uint64(round*16+i)) {
				misses++
			}
		}
	}
	if misses <= 16 { // more than just cold misses
		t.Errorf("SetFixed should cause conflict misses, got %d", misses)
	}
	// The same workload fits the unprotected cache exactly.
	b := baseline(1024, 64, 2)
	bm := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 16; i++ {
			if !b.Access(uint64(i)*64, uint64(round*16+i)) {
				bm++
			}
		}
	}
	if bm != 16 {
		t.Errorf("baseline misses = %d, want 16 cold misses", bm)
	}
}

func TestWayFixedReducesAssociativity(t *testing.T) {
	opt := Options{Scheme: SchemeWayFixed, InvertRatio: 0.5}
	c := New(512, 64, 8, opt) // 1 set, 8 ways; 4 live
	if c.invCount != 4 {
		t.Fatalf("inverted lines = %d, want 4", c.invCount)
	}
	// 8 distinct lines cycle: with only 4 live ways everything thrashes.
	misses := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			if !c.Access(uint64(i)*64, uint64(round*8+i)) {
				misses++
			}
		}
	}
	if misses != 80 {
		t.Errorf("LRU thrash should miss every access, got %d/80", misses)
	}
}

func TestLineFixedMaintainsRatio(t *testing.T) {
	opt := Options{Scheme: SchemeLineFixed, InvertRatio: 0.5, Seed: 42}
	c := New(32*1024, 64, 8, opt)
	if got, want := c.invCount, c.targetInverted(); got != want {
		t.Fatalf("initial inverted = %d, want %d", got, want)
	}
	rng := rand.New(rand.NewSource(9))
	for cyc := uint64(0); cyc < 30000; cyc++ {
		c.Access(uint64(rng.Intn(1024))*64, cyc)
	}
	got := c.invCount
	want := c.targetInverted()
	if got < want-16 || got > want {
		t.Errorf("inverted lines drifted to %d, target %d", got, want)
	}
	if frac := c.Stats().AvgInvertedFraction(c.Lines()); frac < 0.40 || frac > 0.55 {
		t.Errorf("avg inverted fraction = %.3f, want ≈ 0.5", frac)
	}
}

func TestLineFixedVictimsAreLRU(t *testing.T) {
	// With a hot working set smaller than half the cache, inversion
	// should bite cold lines, not hot ones: hit rate on the hot set
	// stays high.
	opt := Options{Scheme: SchemeLineFixed, InvertRatio: 0.5, Seed: 1}
	c := New(32*1024, 64, 8, opt)
	rng := rand.New(rand.NewSource(2))
	var hits, accesses int
	for cyc := uint64(0); cyc < 40000; cyc++ {
		addr := uint64(rng.Intn(128)) * 64 // 8KB hot set in a 32KB cache
		if c.Access(addr, cyc) {
			hits++
		}
		accesses++
	}
	if frac := float64(hits) / float64(accesses); frac < 0.95 {
		t.Errorf("hot-set hit rate under LineFixed50%% = %.3f, want > 0.95", frac)
	}
}

func TestPortPressureDefersMaintenance(t *testing.T) {
	opt := Options{Scheme: SchemeLineFixed, InvertRatio: 0.5, Seed: 3, PortFreeProb: 0.2}
	c := New(4096, 64, 4, opt)
	rng := rand.New(rand.NewSource(5))
	for cyc := uint64(0); cyc < 5000; cyc++ {
		c.Access(uint64(rng.Intn(256))*64, cyc)
	}
	if c.Stats().MaintenanceDeferred == 0 {
		t.Error("constrained ports should defer some maintenance")
	}
}

func TestRotationRefreshesSets(t *testing.T) {
	opt := Options{Scheme: SchemeSetFixed, InvertRatio: 0.5, RotatePeriod: 1000}
	c := New(1024, 64, 2, opt)
	before := c.setRot
	c.Access(0, 1)
	c.Access(0, 2500) // crosses at least one rotation boundary
	if c.setRot == before {
		t.Error("set rotation did not advance")
	}
	if c.invCount != 8 {
		t.Errorf("rotation must preserve the inverted count, got %d", c.invCount)
	}
	// WayFixed rotation too.
	wopt := Options{Scheme: SchemeWayFixed, InvertRatio: 0.5, RotatePeriod: 500}
	wc := New(512, 64, 8, wopt)
	wBefore := wc.wayRot
	wc.Access(0, 1)
	wc.Access(0, 1600)
	if wc.wayRot == wBefore {
		t.Error("way rotation did not advance")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeLineDynamic.String() != "LineDynamic" || Scheme(42).String() == "" {
		t.Error("scheme names wrong")
	}
}

func TestAccessDeterminism(t *testing.T) {
	mk := func() *Cache {
		return New(8192, 64, 4, Options{Scheme: SchemeLineFixed, InvertRatio: 0.5, Seed: 7})
	}
	a, b := mk(), mk()
	rngA := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(11))
	for cyc := uint64(0); cyc < 5000; cyc++ {
		ha := a.Access(uint64(rngA.Intn(512))*64, cyc)
		hb := b.Access(uint64(rngB.Intn(512))*64, cyc)
		if ha != hb {
			t.Fatalf("divergence at cycle %d", cyc)
		}
	}
	if a.Stats().Misses != b.Stats().Misses {
		t.Error("identical runs must produce identical stats")
	}
}

// TestResetMatchesFresh replays one access stream on a fresh cache and,
// after Reset, on the same cache again, for every scheme: the hit
// pattern, the statistics and the inverted-line count must be identical,
// and the reset replay must not allocate.
func TestResetMatchesFresh(t *testing.T) {
	schemes := []Options{
		{Scheme: SchemeNone},
		{Scheme: SchemeSetFixed, InvertRatio: 0.5, RotatePeriod: 700},
		{Scheme: SchemeWayFixed, InvertRatio: 0.5, RotatePeriod: 900},
		{Scheme: SchemeLineFixed, InvertRatio: 0.5, Seed: 7},
		dynOptions(0.6, 0.5, 3),
	}
	for _, opt := range schemes {
		c := New(4096, 64, 4, opt)
		replay := func() ([]bool, Stats, int) {
			rng := rand.New(rand.NewSource(5))
			hits := make([]bool, 0, 30000)
			for cyc := uint64(0); cyc < 30000; cyc++ {
				hits = append(hits, c.Access(uint64(rng.Intn(160))*64, cyc))
			}
			st := *c.Stats()
			st.HitWayRank = append([]uint64(nil), st.HitWayRank...)
			return hits, st, c.invCount
		}
		h1, s1, inv1 := replay()
		c.Reset()
		h2, s2, inv2 := replay()
		if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(s1, s2) || inv1 != inv2 {
			t.Errorf("%v: reset replay differs from the fresh one:\n%+v (inverted %d)\nvs\n%+v (inverted %d)",
				opt.Scheme, s2, inv2, s1, inv1)
		}
		if n := testing.AllocsPerRun(5, c.Reset); n != 0 {
			t.Errorf("%v: Reset allocates %v per call", opt.Scheme, n)
		}
	}
}

package regfile

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func intConfig(isv bool) Config {
	return Config{Name: "int", Entries: 16, Bits: 32, WritePorts: 4, RINVPeriod: 16, EnableISV: isv}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", Entries: 0, Bits: 32, WritePorts: 1},
		{Name: "b", Entries: 4, Bits: 0, WritePorts: 1},
		{Name: "c", Entries: 4, Bits: 200, WritePorts: 1},
		{Name: "d", Entries: 4, Bits: 32, WritePorts: 0},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("New with invalid config did not panic")
				}
			}()
			New(cfg)
		}()
	}
	if err := intConfig(true).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// freeRegs is a FIFO free list standing in for the file's owner (the
// pipeline core keeps the real one): pop returns the oldest free
// register, push returns a released one to the back.
type freeRegs []int

func newFreeRegs(n int) *freeRegs {
	q := make(freeRegs, n)
	for i := range q {
		q[i] = i
	}
	return &q
}

func (q *freeRegs) pop() (int, bool) {
	if len(*q) == 0 {
		return -1, false
	}
	r := (*q)[0]
	*q = (*q)[1:]
	return r, true
}

func (q *freeRegs) push(r int) { *q = append(*q, r) }

func TestAllocateReleaseCycle(t *testing.T) {
	f := New(intConfig(false))
	for r := 0; r < 16; r++ {
		f.Allocate(r, uint64(r))
	}
	// Every register is busy: allocating any of them again is a bug in
	// the owner's free list.
	for r := 0; r < 16; r++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("allocating busy register %d did not panic", r)
				}
			}()
			f.Allocate(r, 20)
		}()
	}
	for r := 0; r < 16; r++ {
		f.Release(r, 30)
	}
	// Released registers can be claimed again.
	for r := 0; r < 16; r++ {
		f.Allocate(r, 40)
	}
	f.Finish(50)
	if rep := f.Report(); rep.Releases != 16 {
		t.Fatalf("releases = %d, want 16", rep.Releases)
	}
}

func TestWriteToFreePanics(t *testing.T) {
	f := New(intConfig(false))
	r := 0
	f.Allocate(r, 0)
	f.Release(r, 1)
	for _, fn := range []func(){
		func() { f.Write(r, 1, 0, 2) },
		func() { f.Release(r, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestValueMasking(t *testing.T) {
	f := New(intConfig(false))
	r := 0
	f.Allocate(r, 0)
	f.Write(r, ^uint64(0), ^uint64(0), 1)
	f.Release(r, 10)
	f.Finish(20)
	rep := f.Report()
	if len(rep.Biases) != 32 {
		t.Fatalf("32-bit file reports %d bit biases", len(rep.Biases))
	}
}

func TestFP80Banks(t *testing.T) {
	f := New(Config{Name: "fp", Entries: 8, Bits: 80, WritePorts: 2, EnableISV: true})
	r := 0
	f.Allocate(r, 0)
	f.Write(r, 0x8000000000000001, 0x3FFF, 1)
	f.Release(r, 100)
	f.Finish(200)
	rep := f.Report()
	if len(rep.Biases) != 80 {
		t.Fatalf("80-bit file reports %d bit biases, want 80", len(rep.Biases))
	}
	if rep.Bits != 80 {
		t.Error("report width wrong")
	}
}

// TestBaselineBiasIsHigh drives the file with biased integer values (no
// ISV): per-bit zero bias must stay high, like Figure 6's baseline.
func TestBaselineBiasIsHigh(t *testing.T) {
	f := New(intConfig(false))
	rng := rand.New(rand.NewSource(1))
	runWorkload(f, rng, 30000)
	rep := f.Report()
	if rep.WorstBias < 0.80 {
		t.Errorf("baseline worst bias = %.3f, want > 0.80 (paper: 89.9%%)", rep.WorstBias)
	}
}

// TestISVBalancesBias reproduces the §4.4 result: ISV pulls the worst
// bias close to 50% (paper: 89.9% -> 48.5%, i.e. within ~2.5% of
// optimal).
func TestISVBalancesBias(t *testing.T) {
	f := New(intConfig(true))
	rng := rand.New(rand.NewSource(1))
	runWorkload(f, rng, 30000)
	rep := f.Report()
	if rep.WorstBias > 0.58 {
		t.Errorf("ISV worst bias = %.3f, want ≈ 0.5 (paper: 48.5%%)", rep.WorstBias)
	}
	if rep.RepairWrites == 0 {
		t.Error("ISV performed no repair writes")
	}
	// The file must be free more than half the time for ISV to apply
	// (Figure 3 casuistic).
	if rep.FreeFraction < 0.5 {
		t.Errorf("free fraction = %.3f; workload should leave entries free >50%%", rep.FreeFraction)
	}
}

// runWorkload allocates, writes biased values, and releases registers so
// that entries are busy ~45% of the time.
func runWorkload(f *File, rng *rand.Rand, cycles uint64) {
	type live struct {
		reg   int
		until uint64
	}
	var inFlight []live
	free := newFreeRegs(f.Config().Entries)
	for cyc := uint64(0); cyc < cycles; cyc++ {
		// Release matured registers.
		keep := inFlight[:0]
		for _, l := range inFlight {
			if l.until <= cyc {
				f.Release(l.reg, cyc)
				free.push(l.reg)
			} else {
				keep = append(keep, l)
			}
		}
		inFlight = keep
		// Allocate a new one with ~30% probability.
		if rng.Float64() < 0.30 {
			if r, ok := free.pop(); ok {
				f.Allocate(r, cyc)
				f.Write(r, biasedValue(rng), 0, cyc)
				life := uint64(5 + rng.Intn(40))
				inFlight = append(inFlight, live{reg: r, until: cyc + life})
			}
		}
	}
	f.Finish(cycles)
}

// biasedValue mimics the integer value mixture: zeros, small ints, few
// negatives.
func biasedValue(rng *rand.Rand) uint64 {
	switch r := rng.Float64(); {
	case r < 0.3:
		return 0
	case r < 0.7:
		return uint64(rng.Intn(256))
	case r < 0.8:
		return uint64(uint32(-int32(rng.Intn(100) - 1)))
	default:
		return uint64(rng.Uint32())
	}
}

func TestPortAvailabilityTracked(t *testing.T) {
	// One write port and bursts of releases: some repair writes must be
	// discarded.
	f := New(Config{Name: "tiny", Entries: 8, Bits: 8, WritePorts: 1, EnableISV: true})
	var regs []int
	for i := 0; i < 8; i++ {
		r := i
		f.Allocate(r, 0)
		f.Write(r, uint64(i), 0, 1) // all writes in cycle 1 exhaust the port
		regs = append(regs, r)
	}
	for _, r := range regs {
		f.Release(r, 1) // same cycle: port already consumed
	}
	f.Finish(10)
	rep := f.Report()
	if rep.RepairDiscarded == 0 {
		t.Error("port-starved releases should discard repair writes")
	}
	if rep.PortAvailability >= 1 {
		t.Errorf("port availability = %v, want < 1", rep.PortAvailability)
	}
}

func TestRepairWritesMostlySucceedWithManyPorts(t *testing.T) {
	// §4.4: ports are available 92% (86%) of the time; discards are rare.
	f := New(intConfig(true))
	rng := rand.New(rand.NewSource(3))
	runWorkload(f, rng, 20000)
	rep := f.Report()
	if rep.Releases == 0 {
		t.Fatal("workload produced no releases")
	}
	frac := float64(rep.RepairWrites) / float64(rep.Releases)
	if frac < 0.85 {
		t.Errorf("repair writes succeeded for %.2f of releases, want > 0.85", frac)
	}
}

func TestFreeFractionAccounting(t *testing.T) {
	f := New(Config{Name: "t", Entries: 2, Bits: 4, WritePorts: 1})
	r := 0
	f.Allocate(r, 0)
	f.Release(r, 50) // busy half of [0,100) for one of two entries
	f.Finish(100)
	rep := f.Report()
	// One entry busy 50 of 100 cycles, the other always free:
	// occupancy = 25%, free = 75%.
	if !almostEqual(rep.FreeFraction, 0.75, 1e-9) {
		t.Errorf("free fraction = %v, want 0.75", rep.FreeFraction)
	}
}

func TestColdStartBiasNeutral(t *testing.T) {
	// Untouched file: every cell holds zero the whole time; zero bias 1.
	f := New(Config{Name: "t", Entries: 4, Bits: 4, WritePorts: 1})
	f.Finish(100)
	rep := f.Report()
	for i, b := range rep.Biases {
		if b != 1 {
			t.Errorf("bit %d bias = %v, want 1 (all zeros)", i, b)
		}
	}
}

// TestResetMatchesFresh requires a reset file to account a workload
// exactly as a fresh one does.
func TestResetMatchesFresh(t *testing.T) {
	for _, cfg := range []Config{intConfig(true), {Name: "fp", Entries: 16, Bits: 80, WritePorts: 2, RINVPeriod: 8, EnableISV: true}} {
		f := New(cfg)
		runWorkload(f, rand.New(rand.NewSource(4)), 5000)
		want := f.Report()
		f.Reset()
		runWorkload(f, rand.New(rand.NewSource(4)), 5000)
		if got := f.Report(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reset file reports\n%+v\nwant\n%+v", cfg.Name, got, want)
		}
	}
}

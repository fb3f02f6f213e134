package lifetime

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"penelope/internal/circuit"
	"penelope/internal/nbti"
)

// testConfig returns a small two-structure fleet over a three-phase
// schedule (service, wearout attack, service).
func testConfig(pop int, sigma float64) Config {
	p := DefaultParams()
	return Config{
		Structures: []string{"adder", "regfile"},
		Phases: []Phase{
			{Name: "service", Years: 2, Duty: []float64{0.9, 0.7}},
			{Name: "attack", Years: 1, Duty: []float64{1, 1}},
			{Name: "service", Years: 2, Duty: []float64{0.9, 0.7}},
		},
		Population: pop,
		EpochYears: 0.25,
		Seed:       7,
		Sigma:      sigma,
		Limit:      DefaultLimit,
		Params:     p,
		Delay:      circuit.NewDelayModel(circuit.PathStats{Depth: 10, Narrow: 5}, p.MaxVTHShift, p.MaxGuardband),
	}
}

func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTrajectoryShape checks the basic physics of a fleet run: the
// schedule covers every epoch, guardbands rise monotonically under
// sustained stress, the attack phase accelerates degradation, and the
// trajectory converges toward the duty equilibrium.
func TestTrajectoryShape(t *testing.T) {
	cfg := testConfig(500, 0)
	e := mustNew(t, cfg)
	stats := e.Run(0)
	if len(stats) != e.TotalEpochs() || !e.Done() {
		t.Fatalf("ran %d epochs of %d", len(stats), e.TotalEpochs())
	}
	if got, want := stats[len(stats)-1].Years, 5.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("final year = %g, want %g", got, want)
	}
	// Guardband rises monotonically through the first service phase and
	// the attack (epochs 0..11): degradation only accumulates there.
	for i := 1; i < 12; i++ {
		if stats[i].MeanGuardband < stats[i-1].MeanGuardband-1e-12 {
			t.Errorf("epoch %d: mean guardband fell %g -> %g under sustained stress",
				i, stats[i-1].MeanGuardband, stats[i].MeanGuardband)
		}
	}
	// The attack phase (epochs 8..11) must age the fleet faster than the
	// preceding service epochs.
	serviceRate := stats[7].MeanGuardband - stats[6].MeanGuardband
	attackRate := stats[9].MeanGuardband - stats[8].MeanGuardband
	if attackRate <= serviceRate {
		t.Errorf("attack epoch rate %g not above service rate %g", attackRate, serviceRate)
	}
	// After the attack ends the fleet partially recovers toward the
	// (lower) service equilibrium: guardband declines but stays above
	// the pre-attack level for a while.
	if !(stats[19].MeanGuardband < stats[11].MeanGuardband) {
		t.Errorf("no post-attack recovery: epoch 11 %g, epoch 19 %g",
			stats[11].MeanGuardband, stats[19].MeanGuardband)
	}
	if !(stats[12].MeanGuardband > stats[7].MeanGuardband) {
		t.Errorf("attack left no residue: epoch 7 %g, epoch 12 %g",
			stats[7].MeanGuardband, stats[12].MeanGuardband)
	}
	// With sigma 0 every chip is nominal: the distribution collapses.
	last := stats[len(stats)-1]
	if last.MaxGuardband-last.MeanGuardband > 1e-9 {
		t.Errorf("sigma=0 fleet spread: mean %g max %g", last.MeanGuardband, last.MaxGuardband)
	}
}

// TestEquilibriumConvergence runs a long constant-duty schedule and
// checks the fleet-mean VTH shift converges to the closed-form duty
// equilibrium of the nbti layer.
func TestEquilibriumConvergence(t *testing.T) {
	const duty = 0.8
	cfg := testConfig(64, 0)
	cfg.Phases = []Phase{{Name: "dc", Years: 40, Duty: []float64{duty, duty}}}
	e := mustNew(t, cfg)
	stats := e.Run(0)
	want := cfg.Params.VTHShift(duty)
	got := stats[len(stats)-1].MeanVTHShift[0]
	// The duty-averaged integration has the closed-form equilibrium as
	// its exact fixed point; after 40 years the residual is below the
	// fixed-point quantization of the aggregate.
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("equilibrium VTH shift = %g, closed form %g", got, want)
	}
}

// TestVariationSpreadsFleet checks that process variation produces a
// real distribution: percentiles order correctly and the tail exceeds
// the mean.
func TestVariationSpreadsFleet(t *testing.T) {
	e := mustNew(t, testConfig(4000, 0.15))
	stats := e.Run(0)
	last := stats[len(stats)-1]
	if !(last.P50Guardband <= last.P95Guardband && last.P95Guardband <= last.P99Guardband) {
		t.Errorf("percentiles out of order: %+v", last)
	}
	if last.P99Guardband <= last.MeanGuardband {
		t.Errorf("P99 %g not above mean %g under sigma=0.15", last.P99Guardband, last.MeanGuardband)
	}
	if last.MaxGuardband < last.P99Guardband {
		t.Errorf("max %g below P99 %g", last.MaxGuardband, last.P99Guardband)
	}
	// Violations must appear gradually (a yield curve, not a cliff).
	if e.FirstViolationYears() < 0 {
		t.Error("no violations in a varied fleet at the default limit")
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].ViolatedFraction < stats[i-1].ViolatedFraction {
			t.Errorf("violated fraction shrank at epoch %d", i)
		}
	}
}

// TestChipParamsDeterministic checks the splittable sampling: chip k's
// parameters depend only on (seed, sigma, k).
func TestChipParamsDeterministic(t *testing.T) {
	for _, chip := range []int{0, 1, 63, 1 << 20} {
		a0, a1, a2 := chipParams(42, 0.1, chip)
		b0, b1, b2 := chipParams(42, 0.1, chip)
		if a0 != b0 || a1 != b1 || a2 != b2 {
			t.Fatalf("chip %d resampled differently", chip)
		}
		if a0 <= 0 || a1 <= 0 || a2 <= 0 {
			t.Fatalf("chip %d has non-positive lognormal multipliers", chip)
		}
	}
	if x, _, _ := chipParams(42, 0.1, 5); x == func() float64 { y, _, _ := chipParams(43, 0.1, 5); return y }() {
		t.Error("different seeds gave chip 5 identical parameters")
	}
}

// TestWorkerCountInvariance requires bit-identical trajectories for
// any worker count: aggregation is fixed-point and shard decomposition
// is independent of the pool size.
func TestWorkerCountInvariance(t *testing.T) {
	cfg := testConfig(10000, 0.1) // > 2 shards
	want := mustNew(t, cfg).Run(1)
	for _, workers := range []int{2, 3, 8} {
		got := mustNew(t, cfg).Run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trajectory with %d workers diverges from serial run", workers)
		}
	}
}

// TestCheckpointResumeIdentical is the checkpoint determinism
// guarantee: a run checkpointed at epoch k and resumed — with a
// different worker count — produces byte-identical stats to an
// uninterrupted run.
func TestCheckpointResumeIdentical(t *testing.T) {
	cfg := testConfig(6000, 0.12)
	full := mustNew(t, cfg)
	wantStats := full.Run(3)
	want, err := json.Marshal(wantStats)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{0, 1, 7, full.TotalEpochs() - 1, full.TotalEpochs()} {
		e := mustNew(t, cfg)
		for i := 0; i < k; i++ {
			e.Step(2)
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatalf("checkpoint at epoch %d: %v", k, err)
		}
		resumed, err := FromSnapshot(snap)
		if err != nil {
			t.Fatalf("resume from epoch %d: %v", k, err)
		}
		if resumed.Epoch() != k {
			t.Fatalf("resumed cursor at epoch %d, want %d", resumed.Epoch(), k)
		}
		got, err := json.Marshal(resumed.Run(5))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("resume at epoch %d: results not byte-identical to uninterrupted run", k)
		}
	}
}

// TestCheckpointRejectsGarbage covers the loud failure paths: wrong
// magic, truncated state, and an invalid embedded config.
func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := FromSnapshot([]byte("not a checkpoint at all......")); err == nil {
		t.Error("bad magic accepted")
	}
	e := mustNew(t, testConfig(100, 0))
	e.Step(0)
	full, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSnapshot(full[:len(full)-9]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

// TestConfigValidate spot-checks the validation errors.
func TestConfigValidate(t *testing.T) {
	good := testConfig(10, 0)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Structures = nil },
		func(c *Config) { c.Phases = nil },
		func(c *Config) { c.Population = 0 },
		func(c *Config) { c.EpochYears = 0 },
		func(c *Config) { c.Sigma = -1 },
		func(c *Config) { c.Limit = 0 },
		func(c *Config) { c.Phases[0].Duty = []float64{0.5} },
		func(c *Config) { c.Phases[0].Duty[0] = 1.5 },
		func(c *Config) { c.Phases[0].Years = 0 },
		func(c *Config) { c.Delay = circuit.DelayModel{} },
		func(c *Config) { c.Params = nbti.Params{} },
		func(c *Config) { c.EpochYears = 1e-9 },
		func(c *Config) { c.Phases[0].Years = 1e308; c.EpochYears = 1e-308 },
	}
	for i, mutate := range bad {
		c := testConfig(10, 0)
		c.Phases = []Phase{
			{Name: "service", Years: 2, Duty: []float64{0.9, 0.7}},
		}
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestDelayModelAnchors checks the circuit-calibrated guardband map:
// zero at zero shift, the measured worst case at the calibration
// anchor, convex in between, clamped far beyond it.
func TestDelayModelAnchors(t *testing.T) {
	p := nbti.DefaultParams()
	m := circuit.NewDelayModel(circuit.PathStats{Depth: 20, Narrow: 11}, p.MaxVTHShift, p.MaxGuardband)
	if g := m.Guardband(0); g != 0 {
		t.Errorf("fresh circuit guardband = %g", g)
	}
	if g := m.Guardband(p.MaxVTHShift); math.Abs(g-p.MaxGuardband) > 1e-12 {
		t.Errorf("anchor guardband = %g, want %g", g, p.MaxGuardband)
	}
	mid := m.Guardband(p.MaxVTHShift / 2)
	if !(mid > 0 && mid < p.MaxGuardband/2+1e-12) {
		t.Errorf("mid-shift guardband %g not convex below linear %g", mid, p.MaxGuardband/2)
	}
	if g, gClamp := m.Guardband(10), m.Guardband(100); g != gClamp {
		t.Errorf("extreme shifts not clamped: %g vs %g", g, gClamp)
	}
}

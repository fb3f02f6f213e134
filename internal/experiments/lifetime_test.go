package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"penelope/internal/lifetime"
	"penelope/internal/memo"
)

// fleetOptions is a light workload and small fleet for the lifetime
// driver tests.
func fleetOptions() Options {
	return Options{
		TraceLength: 2000, TraceStride: 120,
		Population: 900, Years: 3, EpochDays: 45,
		VariationSigma: 0.1, AttackYears: 1, FleetSeed: 5,
	}
}

func marshalLifetime(t *testing.T, r LifetimeResult, o Options) []byte {
	t.Helper()
	payload, err := NewPayload(r, o).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestLifetimeWorkerInvariance requires the lifetime payload to be
// byte-identical for any engine worker count — Workers is execution
// policy, not an experiment parameter.
func TestLifetimeWorkerInvariance(t *testing.T) {
	// LifetimeContext bypasses the trajectory memo: the point is that
	// re-running with different worker counts produces the same bytes.
	o := fleetOptions().Normalized()
	run := func() LifetimeResult {
		res, err := LifetimeContext(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	o.Workers = 1
	want := marshalLifetime(t, run(), o)
	for _, workers := range []int{2, 7} {
		o.Workers = workers
		if got := marshalLifetime(t, run(), o); !bytes.Equal(got, want) {
			t.Fatalf("lifetime payload with %d workers diverges from serial run", workers)
		}
	}
}

// TestLifetimeMemoized checks yield and repeated lifetime calls share
// one fleet simulation: the memoized result is the same value.
func TestLifetimeMemoized(t *testing.T) {
	o := fleetOptions()
	a, b := Lifetime(o), Lifetime(o)
	if len(a.Baseline.Epochs) == 0 || &a.Baseline.Epochs[0] != &b.Baseline.Epochs[0] {
		t.Error("repeated Lifetime calls re-ran the fleet simulation")
	}
}

// TestLifetimeRenderShortRun covers sub-year trajectories: the yearly
// subsample must still render (it once indexed an empty slice).
func TestLifetimeRenderShortRun(t *testing.T) {
	o := fleetOptions()
	o.Years = 0.4
	o.AttackYears = 0
	o.Population = 200
	r := Lifetime(o)
	var buf bytes.Buffer
	r.Render(&buf)
	Yield(r).Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

// TestLifetimeResultShape sanity-checks the experiment against the
// paper's argument: mitigation must lower the end-of-life guardband,
// the attack phase must appear in the schedule, and both fleets must
// cover the full service life.
func TestLifetimeResultShape(t *testing.T) {
	o := fleetOptions()
	r := Lifetime(o)
	if len(r.Structures) != 4 {
		t.Fatalf("expected 4 profiled structures, got %v", r.Structures)
	}
	for _, s := range r.Structures {
		if !(s.Penelope <= s.Baseline) {
			t.Errorf("structure %s: mitigation raised the duty (%.3f -> %.3f)", s.Name, s.Baseline, s.Penelope)
		}
		if s.Baseline < 0.5 || s.Baseline > 1 {
			t.Errorf("structure %s: baseline duty %.3f out of worst-case range", s.Name, s.Baseline)
		}
	}
	if !(r.Penelope.FinalMeanGuardband < r.Baseline.FinalMeanGuardband) {
		t.Errorf("penelope fleet guardband %.4f not below baseline %.4f",
			r.Penelope.FinalMeanGuardband, r.Baseline.FinalMeanGuardband)
	}
	if len(r.Baseline.Epochs) != len(r.Penelope.Epochs) || len(r.Baseline.Epochs) == 0 {
		t.Fatalf("fleet trajectories diverge in length: %d vs %d",
			len(r.Baseline.Epochs), len(r.Penelope.Epochs))
	}
	sawAttack := false
	for _, st := range r.Baseline.Epochs {
		if st.Phase == "attack" {
			sawAttack = true
		}
	}
	if !sawAttack {
		t.Error("attack phase missing from the schedule despite AttackYears")
	}
	if r.CriticalPath.Depth == 0 || !r.DelayModel.Valid() {
		t.Errorf("delay model not derived from the compiled adder: %+v %+v", r.CriticalPath, r.DelayModel)
	}
}

// pairEngines builds a baseline/Penelope pair of pop-chip fleets on
// o's duty profile, each over a single long service phase.
func pairEngines(t *testing.T, o Options, pop int) (engB, engP *lifetime.Engine) {
	t.Helper()
	o.Population = pop
	o = o.Normalized()
	duties := o.fleetDuties()
	var engs [2]*lifetime.Engine
	for i := range engs {
		cfg := o.fleetConfig(duties, i == 1)
		cfg.Phases = []lifetime.Phase{{Name: "service", Years: 200, Duty: cfg.Phases[0].Duty}}
		eng, err := lifetime.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = eng
	}
	return engs[0], engs[1]
}

// TestStepFleetsAllocs pins the cost of one warm epoch of the paired
// driver on single-shard fleets: the two stats rows and nothing else.
// The run is long enough that the stats slices' amortized growth
// rounds away.
func TestStepFleetsAllocs(t *testing.T) {
	engB, engP := pairEngines(t, fleetOptions(), 4096)
	run := &lifetime.Driver{Engines: []*lifetime.Engine{engB, engP}, Workers: 1}
	ctx := context.Background()
	run.Run(ctx, 1, 0)
	if got := testing.AllocsPerRun(200, func() { run.Run(ctx, 1, 0) }); got != 2 {
		t.Errorf("a warm paired epoch allocates %v times, want 2", got)
	}
}

// pollLimitCtx cancels after a fixed number of Err polls: the driver
// polls once per epoch step, so the limit interrupts a run at an exact,
// deterministic epoch — no timing races.
type pollLimitCtx struct {
	context.Context
	polls, limit int
}

func (c *pollLimitCtx) Err() error {
	c.polls++
	if c.polls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestLifetimeContextInterrupted cancels a run after a few epochs: it
// fails with ErrLifetimeInterrupted, and rerunning the same options
// recomputes a payload byte-identical to an uninterrupted run.
func TestLifetimeContextInterrupted(t *testing.T) {
	o := fleetOptions()
	want := marshalLifetime(t, Lifetime(o), o)

	ctx := &pollLimitCtx{Context: context.Background(), limit: 5}
	if _, err := LifetimeContext(ctx, o); !errors.Is(err, ErrLifetimeInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrLifetimeInterrupted", err)
	}
	if ctx.polls != ctx.limit+1 {
		t.Errorf("run polled ctx %d times, want one poll per epoch until the cancelling one (%d)", ctx.polls, ctx.limit+1)
	}
	res, err := LifetimeContext(context.Background(), o)
	if err != nil {
		t.Fatalf("rerun after interruption: %v", err)
	}
	if got := marshalLifetime(t, res, o); !bytes.Equal(got, want) {
		t.Fatal("recomputed payload not byte-identical to an uninterrupted run")
	}
}

// TestFleetDutiesMemoized checks the per-workload duty profile is
// measured once and shared, like the recording bank.
func TestFleetDutiesMemoized(t *testing.T) {
	a := Options{TraceLength: 900, TraceStride: 531}.fleetDuties()
	b := Options{TraceLength: 900, TraceStride: 531, Population: 42}.fleetDuties()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("same workload re-measured for different fleet knobs")
	}
}

// withFleetMemos swaps in empty duty and trajectory memos for the rest
// of the test, so a lifetime run measures its duty profile afresh.
func withFleetMemos(t *testing.T) {
	oldDuties, oldTrajectories := duties, trajectories
	duties = memo.New[string](dutyBudget, func([]StructureDuty) int64 { return 1 })
	trajectories = memo.New[string](trajectoryBudget, func(LifetimeResult) int64 { return 1 })
	t.Cleanup(func() { duties, trajectories = oldDuties, oldTrajectories })
}

// TestFleetDutiesPinNoRecordings checks that the lifetime path streams
// its traces: measuring a duty profile for lifetime, yield and a fleet
// registration's config leaves the recordings memo empty.
func TestFleetDutiesPinNoRecordings(t *testing.T) {
	withRecordings(t, recordingBudget)
	withFleetMemos(t)
	o := fleetOptions()
	o.Population, o.Years, o.AttackYears = 200, 1, 0
	Yield(Lifetime(o))
	FleetConfig(o, true)
	if st := duties.Stats(); st.Misses != 1 {
		t.Fatalf("duty profile measured %d times, want once", st.Misses)
	}
	if st := recordings.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("recordings memo after a fleet run: %+v, want nothing recorded", st)
	}
}

// TestFleetDutiesMatchRecorded checks the generator-fed duty profile
// against the same measurement over recorded bank cursors, at the replay
// options (a one-trace profile slice) and at a stride whose profile
// slice holds two traces.
func TestFleetDutiesMatchRecorded(t *testing.T) {
	for _, o := range []Options{replayOptions(), {TraceLength: 1000, TraceStride: 50}} {
		o = o.normalized()
		streamed := measureFleetDuties(o)
		recorded := measureDuties(o.sources(), o.sampleSources(4))
		if !reflect.DeepEqual(streamed, recorded) {
			t.Errorf("length %d stride %d: streamed duties %+v, recorded %+v",
				o.TraceLength, o.TraceStride, streamed, recorded)
		}
	}
}

// TestYieldConsistent checks the yield curve is exactly the complement
// of the lifetime violation trajectory.
func TestYieldConsistent(t *testing.T) {
	o := fleetOptions()
	life := Lifetime(o)
	y := Yield(life)
	if len(y.Curve) != len(life.Baseline.Epochs) {
		t.Fatalf("yield curve has %d points for %d epochs", len(y.Curve), len(life.Baseline.Epochs))
	}
	for i, pt := range y.Curve {
		if pt.Baseline != 1-life.Baseline.Epochs[i].ViolatedFraction ||
			pt.Penelope != 1-life.Penelope.Epochs[i].ViolatedFraction {
			t.Fatalf("yield point %d inconsistent with lifetime run", i)
		}
	}
	if y.BaselineLifetime > 0 && y.PenelopeLifetime > 0 && y.PenelopeLifetime < y.BaselineLifetime {
		t.Errorf("penelope fleet died sooner: %.2f vs %.2f years", y.PenelopeLifetime, y.BaselineLifetime)
	}
}

// TestFleetOptionsNormalization covers the fleet knobs' canonical form:
// zeros take defaults, negative sigma disables variation, attack spans
// clamp to the service life.
func TestFleetOptionsNormalization(t *testing.T) {
	def := DefaultOptions()
	n := (Options{}).Normalized()
	if n.Population != def.Population || n.Years != def.Years ||
		n.EpochDays != def.EpochDays || n.VariationSigma != def.VariationSigma ||
		n.FleetSeed != def.FleetSeed {
		t.Errorf("zero options normalized to %+v, want defaults %+v", n, def)
	}
	if got := (Options{VariationSigma: -1}).Normalized().VariationSigma; got != 0 {
		t.Errorf("negative sigma normalized to %g, want 0 (disabled)", got)
	}
	if got := (Options{Years: 2, AttackYears: 5}).Normalized().AttackYears; got != 2 {
		t.Errorf("oversized attack normalized to %g years, want clamp to 2", got)
	}
	// Workers never reaches the cache key or the payload envelope.
	a, b := Options{Workers: 1}, Options{Workers: 8}
	if a.Key() != b.Key() {
		t.Error("Workers leaked into the cache key")
	}
	// Fleet knobs do reach the key.
	if (Options{Population: 100}).Key() == (Options{Population: 200}).Key() {
		t.Error("population missing from the cache key")
	}
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"penelope/internal/circuit"
	"penelope/internal/lifetime"
	"penelope/internal/nbti"
	"penelope/internal/pipeline"
	"penelope/internal/sched"
	"penelope/internal/trace"
)

// StructureDuty is the measured worst-case stress duty of one
// microarchitectural structure under the workload, with the paper's
// mitigations off (baseline) and on (Penelope): the per-phase inputs of
// the fleet lifetime engine.
type StructureDuty struct {
	Name     string  `json:"name"`
	Baseline float64 `json:"baseline"`
	Penelope float64 `json:"penelope"`
}

// fleetAdderSamples sets how many real operand samples the adder duty
// measurement draws; it matches the Fig 5 scenarios.
const fleetAdderSamples = 400

// fleetDuties returns the memoized duty profile for o's workload.
func (o Options) fleetDuties() []StructureDuty {
	o = o.normalized()
	return must(duties.Do(o.traceKey(), func() ([]StructureDuty, error) {
		return measureFleetDuties(o), nil
	}))
}

// measureFleetDuties runs the workload through the pipeline with
// mitigations off and on and distills each structure's worst-case
// stress duty from the pipeline statistics: the per-trace-averaged
// worst cell bias for the register files and scheduler (ISV and the
// Fig 8 field plan are the mitigations), and the worst PMOS effective
// bias of the aged adder with idle inputs held (baseline) versus the
// 1+8 synthetic pair injected at the measured utilization (Penelope,
// §4.3). Duties feed lifetime.Phase directly.
//
// The traces stream from their generators instead of the recordings
// memo: the profile replays each trace at most twice and is itself
// memoized, so recording would cost as much and pin the whole bank for
// nothing.
func measureFleetDuties(o Options) []StructureDuty {
	generated := func(stride int) []trace.Source {
		return trace.Sources(trace.SampleTraces(o.TraceLength, stride))
	}
	return measureDuties(generated(o.TraceStride), generated(o.TraceStride*4))
}

// measureDuties distills the duty profile from the workload's traces and
// the slice of them the adder draws its operands from (every fourth, as
// in Fig 5).
func measureDuties(traces, operands []trace.Source) []StructureDuty {
	cfg := pipeline.DefaultConfig()

	// The scheduler plan is profiled on the first fifth of the
	// workload, like Fig 8, so that slice runs its baseline first. The
	// rest of the workload runs baseline and Penelope in one timing pass.
	profileN := len(traces) / 5
	if profileN < 1 {
		profileN = 1
	}
	baseRes := pipeline.RunBatch(cfg, traces[:profileN], 0)
	pen := pipeline.Mitigation{EnableISV: true, SchedPlan: sched.BuildPlan(meanSchedReports(baseRes))}
	penRes := pipeline.RunVariants(cfg, []pipeline.Mitigation{pen}, pipeline.AccountAll, traces[:profileN], 0)[0]
	rest := pipeline.RunVariants(cfg, []pipeline.Mitigation{{}, pen}, pipeline.AccountAll, traces[profileN:], 0)
	baseRes = append(baseRes, rest[0]...)
	penRes = append(penRes, rest[1]...)

	mean := func(res []pipeline.Result, pick func(pipeline.Result) float64) float64 {
		sum := 0.0
		for _, r := range res {
			sum += pick(r)
		}
		return sum / float64(len(res))
	}

	// Adder: operand streams draw from the same slice of traces Fig 5 uses.
	ad := adder32()
	params := nbti.DefaultParams()
	src := trace.NewOperandStream(operands)
	baseSc := ad.GuardbandScenario(src, 1.0, 1, 8, fleetAdderSamples, params)
	util := mean(penRes, func(r pipeline.Result) float64 { return r.AdderUtilMean })
	penSc := ad.GuardbandScenario(src, util, 1, 8, fleetAdderSamples, params)

	return []StructureDuty{
		{Name: "adder", Baseline: baseSc.WorstBias, Penelope: penSc.WorstBias},
		{Name: "int-regfile",
			Baseline: mean(baseRes, func(r pipeline.Result) float64 { return r.IntRF.WorstBias }),
			Penelope: mean(penRes, func(r pipeline.Result) float64 { return r.IntRF.WorstBias })},
		{Name: "fp-regfile",
			Baseline: mean(baseRes, func(r pipeline.Result) float64 { return r.FPRF.WorstBias }),
			Penelope: mean(penRes, func(r pipeline.Result) float64 { return r.FPRF.WorstBias })},
		{Name: "scheduler",
			Baseline: meanSchedReports(baseRes).WorstBias(),
			Penelope: meanSchedReports(penRes).WorstBias()},
	}
}

// fleetDelayModel builds the shared VTH→guardband map from the compiled
// 32-bit adder's critical path, anchored at the calibration layer's
// end-of-life point (20% guardband at the 10% DC-stress shift).
var fleetDelayModel = sync.OnceValues(func() (circuit.PathStats, circuit.DelayModel) {
	path := adder32().Netlist().CriticalPath()
	p := nbti.DefaultParams()
	return path, circuit.NewDelayModel(path, p.MaxVTHShift, p.MaxGuardband)
})

// fleetSchedule builds the service-life phase list for one fleet:
// measured duties for normal service, with an optional wearout-attack
// phase — every structure pinned at full stress duty — splitting the
// service life in half.
func fleetSchedule(duties []StructureDuty, penelope bool, o Options) []lifetime.Phase {
	duty := make([]float64, len(duties))
	for i, d := range duties {
		if penelope {
			duty[i] = d.Penelope
		} else {
			duty[i] = d.Baseline
		}
	}
	service := lifetime.Phase{Name: "service", Years: o.Years, Duty: duty}
	if o.AttackYears <= 0 {
		return []lifetime.Phase{service}
	}
	full := make([]float64, len(duties))
	for i := range full {
		full[i] = 1
	}
	attack := lifetime.Phase{Name: "attack", Years: o.AttackYears, Duty: full}
	pre := (o.Years - o.AttackYears) / 2
	if pre <= 0 {
		return []lifetime.Phase{attack}
	}
	var phases []lifetime.Phase
	phases = append(phases, lifetime.Phase{Name: "service", Years: pre, Duty: duty})
	phases = append(phases, attack)
	phases = append(phases, lifetime.Phase{Name: "service", Years: o.Years - o.AttackYears - pre, Duty: duty})
	return phases
}

// fleetConfig assembles the lifetime engine configuration for one fleet.
func (o Options) fleetConfig(duties []StructureDuty, penelope bool) lifetime.Config {
	names := make([]string, len(duties))
	for i, d := range duties {
		names[i] = d.Name
	}
	_, delay := fleetDelayModel()
	return lifetime.Config{
		Structures: names,
		Phases:     fleetSchedule(duties, penelope, o),
		Population: o.Population,
		EpochYears: o.EpochDays / 365.25,
		Seed:       o.FleetSeed,
		Sigma:      o.VariationSigma,
		Limit:      lifetime.DefaultLimit,
		Params:     lifetime.DefaultParams(),
		Delay:      delay,
	}
}

// FleetConfig is the exported form of fleetConfig for the fleetops
// scheduler: the exact lifetime engine configuration the lifetime
// experiment would run for these options — measured duty profiles
// (memoized per trace workload), the compiled adder's delay model, and
// the attack phases implied by AttackYears.
func FleetConfig(o Options, penelope bool) lifetime.Config {
	o = o.normalized()
	return o.fleetConfig(o.fleetDuties(), penelope)
}

// FleetTrajectory is one fleet's full lifetime run: per-epoch
// aggregates plus the headline numbers.
type FleetTrajectory struct {
	Fleet  string                `json:"fleet"`
	Epochs []lifetime.EpochStats `json:"epochs"`
	// FirstViolationYears is the service time at which the first chip
	// exceeded the guardband budget; -1 if the fleet never violated.
	FirstViolationYears   float64 `json:"first_violation_years"`
	FinalViolatedFraction float64 `json:"final_violated_fraction"`
	FinalMeanGuardband    float64 `json:"final_mean_guardband"`
	FinalP99Guardband     float64 `json:"final_p99_guardband"`
}

// LifetimeResult holds the fleet lifetime experiment: measured
// structure duties and the baseline-vs-Penelope guardband trajectories
// of an identical chip population (same seeds, same variation) under
// the two schedules.
type LifetimeResult struct {
	Structures     []StructureDuty    `json:"structures"`
	GuardbandLimit float64            `json:"guardband_limit"`
	CriticalPath   circuit.PathStats  `json:"critical_path"`
	DelayModel     circuit.DelayModel `json:"delay_model"`
	Baseline       FleetTrajectory    `json:"baseline"`
	Penelope       FleetTrajectory    `json:"penelope"`
}

// trajectoryFrom summarizes a completed engine.
func trajectoryFrom(name string, eng *lifetime.Engine) FleetTrajectory {
	stats := eng.Stats()
	last := stats[len(stats)-1]
	return FleetTrajectory{
		Fleet:                 name,
		Epochs:                stats,
		FirstViolationYears:   eng.FirstViolationYears(),
		FinalViolatedFraction: last.ViolatedFraction,
		FinalMeanGuardband:    last.MeanGuardband,
		FinalP99Guardband:     last.P99Guardband,
	}
}

// Lifetime runs the fleet lifetime experiment: measure duty profiles on
// the workload, then age the same chip population through the baseline
// and Penelope schedules and report both guardband trajectories. Yield
// and repeated runs reuse the memoized result.
func Lifetime(o Options) LifetimeResult {
	o = o.normalized()
	return must(trajectories.Do(o.Key(), func() (LifetimeResult, error) {
		return LifetimeContext(context.Background(), o)
	}))
}

// ErrLifetimeInterrupted reports that a lifetime run was cancelled
// mid-flight. Nothing of it is kept: rerunning with the same options
// recomputes from epoch 0 and produces the same bytes an uninterrupted
// run would have.
var ErrLifetimeInterrupted = fmt.Errorf("lifetime: run interrupted")

// LifetimeContext is Lifetime without the memo, stoppable through ctx:
// the engines poll it once per epoch step, so a shutdown or timeout
// returns ErrLifetimeInterrupted within one epoch. The result is
// byte-identical to Lifetime's for any o.Workers.
func LifetimeContext(ctx context.Context, o Options) (LifetimeResult, error) {
	o = o.normalized()
	duties := o.fleetDuties()
	run, err := lifetime.Open(o.fleetConfig(duties, false), o.fleetConfig(duties, true))
	if err != nil {
		return LifetimeResult{}, err
	}
	run.Workers = o.Workers
	if _, err := run.Run(ctx, 0, 0); err != nil {
		return LifetimeResult{}, fmt.Errorf("%w: %v", ErrLifetimeInterrupted, err)
	}

	path, delay := fleetDelayModel()
	return LifetimeResult{
		Structures:     duties,
		GuardbandLimit: lifetime.DefaultLimit,
		CriticalPath:   path,
		DelayModel:     delay,
		Baseline:       trajectoryFrom("baseline", run.Engines[0]),
		Penelope:       trajectoryFrom("penelope", run.Engines[1]),
	}, nil
}

// Render writes the lifetime trajectory as text: the measured duty
// profile, then a yearly guardband table for both fleets.
func (r LifetimeResult) Render(w io.Writer) {
	section(w, "Fleet lifetime: NBTI guardband trajectory (baseline vs Penelope)")
	fmt.Fprintf(w, "critical path: %d gates (%d narrow); guardband budget %.0f%%\n\n",
		r.CriticalPath.Depth, r.CriticalPath.Narrow, r.GuardbandLimit*100)
	fmt.Fprintf(w, "%-14s %10s %10s\n", "structure", "baseline", "penelope")
	for _, s := range r.Structures {
		fmt.Fprintf(w, "%-14s %9.1f%% %9.1f%%\n", s.Name, s.Baseline*100, s.Penelope*100)
	}
	fmt.Fprintln(w, "(worst-case stress duty per structure)")

	for _, tr := range []FleetTrajectory{r.Baseline, r.Penelope} {
		fmt.Fprintf(w, "\n%s fleet:\n", tr.Fleet)
		fmt.Fprintf(w, "%6s %6s %8s %8s %8s %9s\n", "years", "phase", "mean", "p99", "max", "violated")
		for _, st := range yearlyEpochs(tr.Epochs) {
			fmt.Fprintf(w, "%6.2f %6s %7.2f%% %7.2f%% %7.2f%% %8.2f%% %s\n",
				st.Years, st.Phase, st.MeanGuardband*100, st.P99Guardband*100,
				st.MaxGuardband*100, st.ViolatedFraction*100,
				hashBar(int(st.MeanGuardband*200)))
		}
		if tr.FirstViolationYears >= 0 {
			fmt.Fprintf(w, "first violation after %.2f years; %.2f%% of the fleet violated at end of life\n",
				tr.FirstViolationYears, tr.FinalViolatedFraction*100)
		} else {
			fmt.Fprintf(w, "no chip ever exceeded the %.0f%% budget\n", r.GuardbandLimit*100)
		}
	}
	fmt.Fprintf(w, "\nend-of-life mean guardband: baseline %.2f%% -> penelope %.2f%%\n",
		r.Baseline.FinalMeanGuardband*100, r.Penelope.FinalMeanGuardband*100)
}

// yearlyEpochs subsamples a trajectory to roughly one row per year
// (always keeping the final epoch) so the text report stays readable.
func yearlyEpochs(epochs []lifetime.EpochStats) []lifetime.EpochStats {
	if len(epochs) == 0 {
		return nil
	}
	stride := 1
	if last := epochs[len(epochs)-1]; last.Years > 0 {
		perYear := float64(len(epochs)) / last.Years
		if perYear > 1 {
			stride = int(perYear)
		}
	}
	var out []lifetime.EpochStats
	for i := stride - 1; i < len(epochs); i += stride {
		out = append(out, epochs[i])
	}
	// Sub-year runs can stride past every epoch; the final epoch is
	// always reported.
	if len(out) == 0 || out[len(out)-1].Epoch != epochs[len(epochs)-1].Epoch {
		out = append(out, epochs[len(epochs)-1])
	}
	return out
}

// YieldPoint is one sample of the lifetime-yield curve: the fraction of
// each fleet still within the guardband budget after the given service
// time.
type YieldPoint struct {
	Years    float64 `json:"years"`
	Baseline float64 `json:"baseline"`
	Penelope float64 `json:"penelope"`
}

// yieldTarget is the survival fraction the yield experiment quotes
// lifetimes at.
const yieldTarget = 0.95

// YieldResult holds the fleet lifetime-yield experiment.
type YieldResult struct {
	GuardbandLimit float64      `json:"guardband_limit"`
	YieldTarget    float64      `json:"yield_target"`
	Curve          []YieldPoint `json:"curve"`
	// BaselineLifetime and PenelopeLifetime are the service times at
	// which each fleet's yield drops below YieldTarget; -1 means the
	// fleet outlived the simulated horizon.
	BaselineLifetime float64 `json:"baseline_lifetime_years"`
	PenelopeLifetime float64 `json:"penelope_lifetime_years"`
}

// Yield derives the lifetime-yield curve from a fleet lifetime run:
// survival against the provisioned guardband budget over service time,
// baseline vs Penelope.
func Yield(life LifetimeResult) YieldResult {
	res := YieldResult{
		GuardbandLimit:   life.GuardbandLimit,
		YieldTarget:      yieldTarget,
		BaselineLifetime: -1,
		PenelopeLifetime: -1,
	}
	b, p := life.Baseline.Epochs, life.Penelope.Epochs
	for i := range b {
		pt := YieldPoint{
			Years:    b[i].Years,
			Baseline: 1 - b[i].ViolatedFraction,
			Penelope: 1 - p[i].ViolatedFraction,
		}
		res.Curve = append(res.Curve, pt)
		if res.BaselineLifetime < 0 && pt.Baseline < yieldTarget {
			res.BaselineLifetime = pt.Years
		}
		if res.PenelopeLifetime < 0 && pt.Penelope < yieldTarget {
			res.PenelopeLifetime = pt.Years
		}
	}
	return res
}

// Render writes the yield curve as text.
func (r YieldResult) Render(w io.Writer) {
	section(w, "Fleet lifetime yield (fraction within the guardband budget)")
	fmt.Fprintf(w, "budget %.0f%%, lifetime quoted at %.0f%% yield\n\n",
		r.GuardbandLimit*100, r.YieldTarget*100)
	fmt.Fprintf(w, "%6s %10s %10s\n", "years", "baseline", "penelope")
	points := r.Curve
	if len(points) > 16 {
		stride := (len(points) + 15) / 16
		var sampled []YieldPoint
		for i := stride - 1; i < len(points); i += stride {
			sampled = append(sampled, points[i])
		}
		if sampled[len(sampled)-1].Years != points[len(points)-1].Years {
			sampled = append(sampled, points[len(points)-1])
		}
		points = sampled
	}
	for _, pt := range points {
		fmt.Fprintf(w, "%6.2f %9.2f%% %9.2f%% %s\n",
			pt.Years, pt.Baseline*100, pt.Penelope*100, hashBar(int(pt.Penelope*40)))
	}
	lifetimeStr := func(v float64) string {
		if v < 0 {
			return "beyond horizon"
		}
		return fmt.Sprintf("%.2f years", v)
	}
	fmt.Fprintf(w, "\nlifetime at %.0f%% yield: baseline %s, penelope %s\n",
		r.YieldTarget*100, lifetimeStr(r.BaselineLifetime), lifetimeStr(r.PenelopeLifetime))
}

package experiments

import (
	"fmt"
	"io"

	"penelope/internal/pipeline"
	"penelope/internal/sched"
	"penelope/internal/trace"
)

// Fig8Result holds the scheduler bit-bias study of paper Figure 8 and
// the §4.5 field classification (Table 2).
type Fig8Result struct {
	Baseline  sched.Report
	Protected sched.Report
	Plan      *sched.Plan

	WorstBaseline  float64
	WorstProtected float64
}

// Fig8 profiles the scheduler on a slice of the workload to build the
// per-field technique plan (the paper profiles K on 100 of the 531
// traces), then evaluates baseline and protected schedulers on the
// remaining traces in one shared timing pass. Both sweeps replay the
// shared recording bank.
func Fig8(o Options) Fig8Result {
	o = o.normalized()
	return fig8(o.sources())
}

// fig8 is the driver body over an explicit source set, so the
// equivalence tests can feed it generator-backed sources and require
// bit-identical results to the recorded path.
func fig8(traces []trace.Source) Fig8Result {
	profileN := len(traces) / 5
	if profileN < 1 {
		profileN = 1
	}
	cfg := pipeline.DefaultConfig()
	// Both passes account the scheduler alone: Fig 8 reads nothing else.
	profile := pipeline.RunVariants(cfg, []pipeline.Mitigation{{}}, pipeline.AccountScheduler, traces[:profileN], 0)[0]
	plan := sched.BuildPlan(meanSchedReports(profile))
	eval := pipeline.RunVariants(cfg, []pipeline.Mitigation{{}, {SchedPlan: plan}}, pipeline.AccountScheduler, traces[profileN:], 0)
	res := Fig8Result{
		Plan:      plan,
		Baseline:  meanSchedReports(eval[0]),
		Protected: meanSchedReports(eval[1]),
	}
	res.WorstBaseline = res.Baseline.WorstBias()
	res.WorstProtected = res.Protected.WorstBias()
	return res
}

// meanSchedReports averages the scheduler reports of already-run
// pipeline results. The averaging happens in result order, keeping the
// floats bit-identical to a serial sweep. Shared between Fig 8 and the
// fleet duty profiler, which reuses one batch of results for several
// structures.
func meanSchedReports(results []pipeline.Result) sched.Report {
	var agg sched.Report
	n := 0
	for _, res := range results {
		r := res.Sched
		if n == 0 {
			agg = r
			for fi := range agg.Fields {
				agg.Fields[fi].Biases = append([]float64(nil), r.Fields[fi].Biases...)
				agg.Fields[fi].BusyBias = append([]float64(nil), r.Fields[fi].BusyBias...)
			}
		} else {
			agg.EntryOccupancy += r.EntryOccupancy
			agg.DataOccupancy += r.DataOccupancy
			agg.PortAvailability += r.PortAvailability
			agg.Dispatches += r.Dispatches
			agg.RepairWrites += r.RepairWrites
			agg.RepairDiscarded += r.RepairDiscarded
			for fi := range agg.Fields {
				agg.Fields[fi].Occupancy += r.Fields[fi].Occupancy
				for b := range agg.Fields[fi].Biases {
					agg.Fields[fi].Biases[b] += r.Fields[fi].Biases[b]
					agg.Fields[fi].BusyBias[b] += r.Fields[fi].BusyBias[b]
				}
			}
		}
		n++
	}
	if n == 0 {
		return agg
	}
	inv := 1 / float64(n)
	agg.EntryOccupancy *= inv
	agg.DataOccupancy *= inv
	agg.PortAvailability *= inv
	for fi := range agg.Fields {
		f := &agg.Fields[fi]
		f.Occupancy *= inv
		worst := 0.5
		for b := range f.Biases {
			f.Biases[b] *= inv
			f.BusyBias[b] *= inv
			if f.Biases[b] > worst {
				worst = f.Biases[b]
			}
			if 1-f.Biases[b] > worst {
				worst = 1 - f.Biases[b]
			}
		}
		f.WorstBias = worst
	}
	return agg
}

// Render writes the Figure 8 series and the field classification.
func (r Fig8Result) Render(w io.Writer) {
	section(w, "Figure 8: scheduler bit bias (bias towards \"0\")")
	fmt.Fprintf(w, "entry occupancy %.1f%% (paper: 63%%), data fields %.1f%% busy (paper: 25-30%%), ports available %.1f%% (paper: 77%%)\n\n",
		r.Baseline.EntryOccupancy*100, r.Baseline.DataOccupancy*100, r.Baseline.PortAvailability*100)

	fmt.Fprintf(w, "%-12s %5s %12s %12s  %-14s\n", "field", "bits", "base worst", "prot worst", "technique")
	for fi, bf := range r.Baseline.Fields {
		spec := sched.Spec(bf.ID)
		if !spec.Plot {
			continue
		}
		pf := r.Protected.Fields[fi]
		fmt.Fprintf(w, "%-12s %5d %11.1f%% %11.1f%%  %-14s\n",
			bf.Name, bf.Bits, bf.WorstBias*100, pf.WorstBias*100, r.Plan.Technique(bf.ID))
	}
	fmt.Fprintf(w, "\nworst-case bias: baseline %.1f%% -> protected %.1f%% (paper: ~100%% -> 63.2%%)\n",
		r.WorstBaseline*100, r.WorstProtected*100)

	fmt.Fprintln(w, "\nper-bit series (plottable fields concatenated, baseline | protected):")
	bb := r.Baseline.BitSeries()
	pb := r.Protected.BitSeries()
	for i := range bb {
		fmt.Fprintf(w, "%4d %6.1f%% %6.1f%%\n", i+1, bb[i]*100, pb[i]*100)
	}
}

// SchedFieldRow is one field of the Table 2 layout.
type SchedFieldRow struct {
	Field       string
	Bits        int
	Description string
}

// Table2Result holds the scheduler field layout of paper Table 2.
type Table2Result struct {
	Rows      []SchedFieldRow
	TotalBits int
}

// Table2 collects the scheduler field layout (paper Table 2).
func Table2() Table2Result {
	var res Table2Result
	for _, f := range sched.Specs() {
		res.Rows = append(res.Rows, SchedFieldRow{Field: f.Name, Bits: f.Bits, Description: f.Description})
	}
	res.TotalBits = sched.TotalBits()
	return res
}

// Render writes Table 2.
func (r Table2Result) Render(w io.Writer) {
	section(w, "Table 2: scheduler fields")
	fmt.Fprintf(w, "%-12s %5s  %s\n", "field", "bits", "description")
	for _, f := range r.Rows {
		fmt.Fprintf(w, "%-12s %5d  %s\n", f.Field, f.Bits, f.Description)
	}
	fmt.Fprintf(w, "%-12s %5d\n", "total", r.TotalBits)
}

package experiments

import (
	"fmt"
	"io"

	"penelope/internal/pipeline"
	"penelope/internal/stats"
	"penelope/internal/trace"
)

// Fig6Result holds the register-file bit-bias series of paper Figure 6:
// per-bit zero bias for the integer (32-bit) and FP (80-bit) files,
// baseline versus ISV.
type Fig6Result struct {
	IntBaseline []float64
	IntISV      []float64
	FPBaseline  []float64
	FPISV       []float64

	IntWorstBaseline float64
	IntWorstISV      float64
	FPWorstBaseline  float64
	FPWorstISV       float64

	// FreeInt and FreeFP are the measured free-time fractions (paper:
	// 54% and 69%), and port availabilities (92% and 86%).
	FreeInt, FreeFP           float64
	PortAvailInt, PortAvailFP float64
}

// Fig6 runs the workload through the pipeline with the register-file ISV
// mechanism off and on, aggregating per-bit bias across traces. The
// workload comes from the shared recording bank; one timing pass per
// recorded stream serves both settings.
func Fig6(o Options) Fig6Result {
	o = o.normalized()
	return fig6(o.sources())
}

// fig6 is the driver body over an explicit source set, so the
// equivalence tests can feed it generator-backed sources and require
// bit-identical results to the recorded path.
func fig6(traces []trace.Source) Fig6Result {
	var res Fig6Result
	res.IntBaseline = make([]float64, 32)
	res.IntISV = make([]float64, 32)
	res.FPBaseline = make([]float64, 80)
	res.FPISV = make([]float64, 80)
	n := 0
	// One timing pass per trace feeds both register-file variants, with
	// only the register files accounted; the runs fan out over the
	// worker pool, and accumulation stays in trace order so the
	// aggregated floats are bit-identical to a serial run.
	runs := pipeline.RunVariants(pipeline.DefaultConfig(),
		[]pipeline.Mitigation{{}, {EnableISV: true}}, pipeline.AccountRegfiles, traces, 0)
	baseRes, isvRes := runs[0], runs[1]
	for ti := range traces {
		b, i := baseRes[ti], isvRes[ti]
		for k := 0; k < 32; k++ {
			res.IntBaseline[k] += b.IntRF.Biases[k]
			res.IntISV[k] += i.IntRF.Biases[k]
		}
		for k := 0; k < 80; k++ {
			res.FPBaseline[k] += b.FPRF.Biases[k]
			res.FPISV[k] += i.FPRF.Biases[k]
		}
		res.FreeInt += i.IntRF.FreeFraction
		res.FreeFP += i.FPRF.FreeFraction
		res.PortAvailInt += i.IntRF.PortAvailability
		res.PortAvailFP += i.FPRF.PortAvailability
		n++
	}
	div := func(xs []float64) {
		for k := range xs {
			xs[k] /= float64(n)
		}
	}
	div(res.IntBaseline)
	div(res.IntISV)
	div(res.FPBaseline)
	div(res.FPISV)
	res.FreeInt /= float64(n)
	res.FreeFP /= float64(n)
	res.PortAvailInt /= float64(n)
	res.PortAvailFP /= float64(n)
	res.IntWorstBaseline = worstCell(res.IntBaseline)
	res.IntWorstISV = worstCell(res.IntISV)
	res.FPWorstBaseline = worstCell(res.FPBaseline)
	res.FPWorstISV = worstCell(res.FPISV)
	return res
}

// worstCell returns the worst memory-cell stress bias of a series:
// max over bits of max(bias, 1-bias).
func worstCell(biases []float64) float64 {
	worst := 0.5
	for _, b := range biases {
		if b > worst {
			worst = b
		}
		if 1-b > worst {
			worst = 1 - b
		}
	}
	return worst
}

// Render writes the Figure 6 series.
func (r Fig6Result) Render(w io.Writer) {
	section(w, "Figure 6: register file bit bias (bias towards \"0\")")
	fmt.Fprintf(w, "register files free: INT %s, FP %s (paper: 54%%, 69%%)\n",
		stats.Ratio(r.FreeInt), stats.Ratio(r.FreeFP))
	fmt.Fprintf(w, "write ports available: INT %s, FP %s (paper: 92%%, 86%%)\n\n",
		stats.Ratio(r.PortAvailInt), stats.Ratio(r.PortAvailFP))

	fmt.Fprintln(w, "INT register file:")
	fmt.Fprintf(w, "%4s %10s %10s\n", "bit", "baseline", "ISV")
	for k := 0; k < 32; k++ {
		fmt.Fprintf(w, "%4d %9.1f%% %9.1f%%\n", k+1, r.IntBaseline[k]*100, r.IntISV[k]*100)
	}
	fmt.Fprintf(w, "worst-case: baseline %.1f%% -> ISV %.1f%% (paper: 89.9%% -> 48.5%%)\n\n",
		r.IntWorstBaseline*100, r.IntWorstISV*100)

	fmt.Fprintln(w, "FP register file:")
	fmt.Fprintf(w, "%4s %10s %10s\n", "bit", "baseline", "ISV")
	for k := 0; k < 80; k += 2 {
		fmt.Fprintf(w, "%4d %9.1f%% %9.1f%%\n", k+1, r.FPBaseline[k]*100, r.FPISV[k]*100)
	}
	fmt.Fprintf(w, "worst-case: baseline %.1f%% -> ISV %.1f%% (paper: 84.2%% -> 45.5%%)\n",
		r.FPWorstBaseline*100, r.FPWorstISV*100)
}

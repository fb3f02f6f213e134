package experiments

import (
	"fmt"
	"io"

	"penelope/internal/cache"
	"penelope/internal/pipeline"
	"penelope/internal/stats"
)

// CacheConfig identifies one row group of paper Table 3.
type CacheConfig struct {
	Name    string
	IsTLB   bool
	Bytes   int // DL0 size (ignored for TLBs)
	Entries int // TLB entries (ignored for DL0)
	Ways    int
	// DynThreshold is the induced-extra-miss threshold of the dynamic
	// monitor for this configuration (§4.6: 2/3/4% for the DL0 sizes,
	// 0.5/1/2% for the DTLB sizes).
	DynThreshold float64
}

// Table3Configs returns the nine configurations evaluated in Table 3.
func Table3Configs() []CacheConfig {
	return []CacheConfig{
		{Name: "DL0 8-way 32KB", Bytes: 32 * 1024, Ways: 8, DynThreshold: 0.02},
		{Name: "DL0 8-way 16KB", Bytes: 16 * 1024, Ways: 8, DynThreshold: 0.03},
		{Name: "DL0 8-way 8KB", Bytes: 8 * 1024, Ways: 8, DynThreshold: 0.04},
		{Name: "DL0 4-way 32KB", Bytes: 32 * 1024, Ways: 4, DynThreshold: 0.02},
		{Name: "DL0 4-way 16KB", Bytes: 16 * 1024, Ways: 4, DynThreshold: 0.03},
		{Name: "DL0 4-way 8KB", Bytes: 8 * 1024, Ways: 4, DynThreshold: 0.04},
		{Name: "DTLB 8-way 128 ent.", IsTLB: true, Entries: 128, Ways: 8, DynThreshold: 0.005},
		{Name: "DTLB 8-way 64 ent.", IsTLB: true, Entries: 64, Ways: 8, DynThreshold: 0.01},
		{Name: "DTLB 8-way 32 ent.", IsTLB: true, Entries: 32, Ways: 8, DynThreshold: 0.02},
	}
}

// Table3Row is one row of Table 3: average performance loss per scheme.
type Table3Row struct {
	Config          CacheConfig
	SetFixed50      float64
	LineFixed50     float64
	LineDynamic60   float64
	BaselineMiss    float64 // baseline miss rate, for context
	InvertedLineDyn float64 // avg inverted fraction under the dynamic scheme
}

// Table3Result holds all rows plus the §4.7 combined-CPI run.
type Table3Result struct {
	Rows []Table3Row
	// CombinedCPI is the relative CPI with LineFixed50% on both the DL0
	// and the DTLB simultaneously (paper: 1.007).
	CombinedCPI float64
}

// Table3 evaluates SetFixed50%, LineFixed50% and LineDynamic60% on the
// six DL0 and three DTLB configurations, reporting the average relative
// performance loss across the workload.
func Table3(o Options) Table3Result {
	o = o.normalized()
	// One recorded workload serves all four schemes of all nine
	// configurations plus the combined run: 37 replays of a single
	// synthesis pass.
	traces := o.sources()
	var res Table3Result
	for _, cc := range Table3Configs() {
		row := Table3Row{Config: cc}
		var baseCPI, setCPI, lineCPI, dynCPI, baseMiss, dynInv float64
		// The four schemes sweep the workload through the batch runner;
		// sums accumulate in trace order so the averages are bit-identical
		// to a serial sweep.
		baseRes := runTiming(applyCacheConfig(cc, cache.Options{}), traces)
		setRes := runTiming(applyCacheConfig(cc, cache.Options{
			Scheme: cache.SchemeSetFixed, InvertRatio: 0.5, RotatePeriod: 2_000_000,
		}), traces)
		lineRes := runTiming(applyCacheConfig(cc, cache.Options{
			Scheme: cache.SchemeLineFixed, InvertRatio: 0.5, Seed: 17,
		}), traces)
		dynRes := runTiming(applyCacheConfig(cc, dynOptions(o, cc)), traces)
		for ti := range traces {
			base, set, line, dyn := baseRes[ti], setRes[ti], lineRes[ti], dynRes[ti]
			baseCPI += base.CPI
			setCPI += set.CPI
			lineCPI += line.CPI
			dynCPI += dyn.CPI
			if cc.IsTLB {
				baseMiss += base.DTLBMissRate
				dynInv += dyn.DTLBInverted
			} else {
				baseMiss += base.DL0MissRate
				dynInv += dyn.DL0Inverted
			}
		}
		n := float64(len(traces))
		row.SetFixed50 = setCPI/baseCPI - 1
		row.LineFixed50 = lineCPI/baseCPI - 1
		row.LineDynamic60 = dynCPI/baseCPI - 1
		row.BaselineMiss = baseMiss / n
		row.InvertedLineDyn = dynInv / n
		res.Rows = append(res.Rows, row)
	}

	// §4.7: LineFixed50% on DL0 and DTLB together.
	var baseCPI, bothCPI float64
	lineOpt := cache.Options{Scheme: cache.SchemeLineFixed, InvertRatio: 0.5, Seed: 17}
	bothCfg := pipeline.DefaultConfig()
	bothCfg.DL0Options = lineOpt
	bothCfg.DTLBOptions = lineOpt
	baseRes := runTiming(pipeline.DefaultConfig(), traces)
	bothRes := runTiming(bothCfg, traces)
	for ti := range traces {
		baseCPI += baseRes[ti].CPI
		bothCPI += bothRes[ti].CPI
	}
	res.CombinedCPI = bothCPI / baseCPI
	return res
}

// applyCacheConfig builds a pipeline config with the given cache
// geometry and inversion options on the structure under test, leaving
// the other structure at its default, unprotected configuration.
func applyCacheConfig(cc CacheConfig, opt cache.Options) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	if cc.IsTLB {
		cfg.DTLBEntries = cc.Entries
		cfg.DTLBWays = cc.Ways
		cfg.DTLBOptions = opt
	} else {
		cfg.DL0Bytes = cc.Bytes
		cfg.DL0Ways = cc.Ways
		cfg.DL0Options = opt
	}
	return cfg
}

// dynOptions scales the §4.6 monitor windows (200K warm-up and test in a
// 10M-cycle period) to the experiment's run length so several decision
// windows fit in every trace replay.
func dynOptions(o Options, cc CacheConfig) cache.Options {
	period := uint64(o.TraceLength / 3)
	if period < 1500 {
		period = 1500
	}
	return cache.Options{
		Scheme:        cache.SchemeLineDynamic,
		InvertRatio:   0.6,
		PeriodCycles:  period,
		WarmupCycles:  period / 50,
		TestCycles:    period / 50,
		MissThreshold: cc.DynThreshold,
		PortFreeProb:  1,
		Seed:          17,
	}
}

// Render writes Table 3.
func (r Table3Result) Render(w io.Writer) {
	section(w, "Table 3: average performance loss per inversion scheme")
	fmt.Fprintf(w, "%-20s %14s %14s %16s %10s\n",
		"configuration", "SetFixed50%", "LineFixed50%", "LineDynamic60%", "base miss")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-20s %13s %14s %16s %10s\n", row.Config.Name,
			stats.Ratio(row.SetFixed50), stats.Ratio(row.LineFixed50),
			stats.Ratio(row.LineDynamic60), stats.Ratio(row.BaselineMiss))
	}
	fmt.Fprintf(w, "\ncombined CPI with LineFixed50%% on DL0+DTLB: %.4f (paper: 1.007)\n", r.CombinedCPI)
}

// MRUResult holds the DL0 hit-position distribution backing §3.2.1's
// line-granularity argument (paper: 90% of hits in the MRU position for
// a 32KB 8-way DL0, 7% at MRU+1, 3% elsewhere).
type MRUResult struct {
	// Ranks[i] is the fraction of DL0 hits landing at MRU+i, averaged
	// across traces.
	Ranks []float64
}

// MRUStudy measures the DL0 hit-position distribution on a sample of
// the workload.
func MRUStudy(o Options) MRUResult {
	o = o.normalized()
	cfg := pipeline.DefaultConfig()
	ranks := make([]float64, cfg.DL0Ways)
	n := 0.0
	for _, r := range runTiming(cfg, o.sampleSources(2)) {
		var hits uint64
		for _, c := range r.DL0Stats.HitWayRank {
			hits += c
		}
		if hits == 0 {
			continue
		}
		for i, c := range r.DL0Stats.HitWayRank {
			ranks[i] += float64(c) / float64(hits)
		}
		n++
	}
	for i := range ranks {
		ranks[i] /= n
	}
	return MRUResult{Ranks: ranks}
}

// Render writes the hit-position distribution.
func (r MRUResult) Render(w io.Writer) {
	section(w, "DL0 hit position distribution (§3.2.1)")
	for i, f := range r.Ranks {
		fmt.Fprintf(w, "MRU+%d: %6.2f%%\n", i, f*100)
	}
	fmt.Fprintln(w, "(paper: 90% MRU, 7% MRU+1, 3% remaining)")
}

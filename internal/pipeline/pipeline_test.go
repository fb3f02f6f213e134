package pipeline

import (
	"testing"

	"penelope/internal/cache"
	"penelope/internal/trace"
)

func shortTrace(id trace.SuiteID, idx int) *trace.Trace {
	return trace.NewTrace(id, idx, 15000)
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.AllocWidth = 0 },
		func(c *Config) { c.SchedEntries = 0 },
		func(c *Config) { c.IntRegs = 8 },
		func(c *Config) { c.NumAdders = 0 },
		func(c *Config) { c.DL0Bytes = 0 },
		func(c *Config) { c.IssuePorts = 0 },
		func(c *Config) { c.IssuePorts = trace.NumIssuePorts - 1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
	if AdderPriority.String() != "priority" || AdderUniform.String() != "uniform" {
		t.Error("policy names wrong")
	}
}

// TestRunRejectsTooFewIssuePorts requires a config with fewer issue
// ports than the uop classes use to fail validation inside Run, not to
// index past the port table mid-run.
func TestRunRejectsTooFewIssuePorts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IssuePorts = trace.NumIssuePorts - 1
	want := cfg.Validate()
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || want == nil || err.Error() != want.Error() {
			t.Fatalf("Run panicked with %v, want the validation error (%v)", r, want)
		}
	}()
	Run(cfg, shortTrace(trace.SpecFP2000, 0))
}

func TestRunBasics(t *testing.T) {
	r := Run(DefaultConfig(), shortTrace(trace.SpecINT2000, 0))
	if r.Uops != 15000 {
		t.Fatalf("uops = %d, want 15000", r.Uops)
	}
	if r.Cycles == 0 || r.CPI <= 0 {
		t.Fatal("no cycles simulated")
	}
	// A 4-wide core cannot beat 0.25 CPI and should stay well under the
	// fully serialized bound.
	if r.CPI < 0.25 || r.CPI > 5 {
		t.Errorf("CPI = %.3f, outside plausible range", r.CPI)
	}
}

// TestPaperOccupancies checks the headline §4.4/§4.5 statistics land in
// the paper's neighbourhood: register files free more than half the
// time, scheduler occupancy moderate-high, write ports mostly available.
func TestPaperOccupancies(t *testing.T) {
	r := Run(DefaultConfig(), shortTrace(trace.Multimedia, 0))
	if r.IntRF.FreeFraction < 0.45 || r.IntRF.FreeFraction > 0.85 {
		t.Errorf("int RF free = %.2f, want around the paper's 0.54", r.IntRF.FreeFraction)
	}
	if r.FPRF.FreeFraction < 0.5 {
		t.Errorf("fp RF free = %.2f, want > 0.5 (paper: 0.69)", r.FPRF.FreeFraction)
	}
	if r.Sched.EntryOccupancy < 0.3 {
		t.Errorf("scheduler occupancy = %.2f, want moderate-high (paper: 0.63)", r.Sched.EntryOccupancy)
	}
	if r.Sched.DataOccupancy >= r.Sched.EntryOccupancy {
		t.Error("data fields must be freer than entries (§4.5: 70-75% free)")
	}
	if r.IntRF.PortAvailability < 0.8 {
		t.Errorf("int write-port availability = %.2f, want high (paper: 0.92)", r.IntRF.PortAvailability)
	}
}

// TestDL0MRUHits checks §3.2.1's locality claim: the bulk of DL0 hits
// land in the MRU position.
func TestDL0MRUHits(t *testing.T) {
	r := Run(DefaultConfig(), shortTrace(trace.Office, 0))
	if r.DL0MRUHits < 0.80 {
		t.Errorf("MRU hit fraction = %.2f, want > 0.80 (paper: 0.90)", r.DL0MRUHits)
	}
}

// TestAdderPolicies reproduces §4.3: uniform distribution evens the
// adders out (paper: 21% each); priority allocation skews them (paper:
// 11%–30%).
func TestAdderPolicies(t *testing.T) {
	cfgU := DefaultConfig()
	cfgU.AdderPolicy = AdderUniform
	u := Run(cfgU, shortTrace(trace.SpecINT2000, 1))
	spreadU := 0.0
	for _, util := range u.AdderUtil {
		if d := util - u.AdderUtilMean; d > spreadU {
			spreadU = d
		}
	}
	if spreadU > 0.02 {
		t.Errorf("uniform policy spread = %.3f, want near-flat utilization", spreadU)
	}
	if u.AdderUtilMean < 0.08 || u.AdderUtilMean > 0.40 {
		t.Errorf("uniform mean utilization = %.3f, want in the paper's 11-30%% band", u.AdderUtilMean)
	}

	cfgP := DefaultConfig()
	cfgP.AdderPolicy = AdderPriority
	p := Run(cfgP, shortTrace(trace.SpecINT2000, 1))
	for i := 1; i < len(p.AdderUtil); i++ {
		if p.AdderUtil[i] > p.AdderUtil[i-1]+1e-9 {
			t.Fatalf("priority utilization must decrease with adder index: %v", p.AdderUtil)
		}
	}
	if p.AdderUtil[0] < u.AdderUtilMean {
		t.Error("priority policy must load the first adder above the uniform mean")
	}
}

// TestCacheSchemeCostsCPI checks the Table 3 mechanism end to end:
// running with SetFixed50% must cost some CPI relative to the baseline,
// and LineDynamic must cost less than SetFixed on average.
func TestCacheSchemeCostsCPI(t *testing.T) {
	tr := shortTrace(trace.Server, 0)
	base := Run(DefaultConfig(), tr)

	cfgSet := DefaultConfig()
	cfgSet.DL0Options = cache.Options{Scheme: cache.SchemeSetFixed, InvertRatio: 0.5, RotatePeriod: 5_000_000}
	set := Run(cfgSet, tr)

	cfgDyn := DefaultConfig()
	cfgDyn.DL0Options = cache.DefaultDynamicOptions(0.6, 0.02, 1)
	cfgDyn.DL0Options.PeriodCycles = 10000
	cfgDyn.DL0Options.WarmupCycles = 1000
	cfgDyn.DL0Options.TestCycles = 1000
	dyn := Run(cfgDyn, tr)

	lossSet := set.CPI/base.CPI - 1
	lossDyn := dyn.CPI/base.CPI - 1
	if lossSet <= 0 {
		t.Errorf("SetFixed50%% CPI loss = %.4f, want positive", lossSet)
	}
	if lossSet > 0.25 {
		t.Errorf("SetFixed50%% CPI loss = %.4f, implausibly large", lossSet)
	}
	if lossDyn >= lossSet {
		t.Errorf("LineDynamic loss (%.4f) should undercut SetFixed (%.4f)", lossDyn, lossSet)
	}
	if set.DL0Inverted < 0.4 {
		t.Errorf("SetFixed inverted fraction = %.2f, want ≈ 0.5", set.DL0Inverted)
	}
}

// TestISVEndToEnd drives the register-file ISV mechanism through the full
// pipeline: worst bias must fall from the baseline's high values towards
// 50% (Figure 6).
func TestISVEndToEnd(t *testing.T) {
	tr := shortTrace(trace.SpecINT2000, 2)
	base := Run(DefaultConfig(), tr)
	cfg := DefaultConfig()
	cfg.EnableISV = true
	isv := Run(cfg, tr)

	if base.IntRF.WorstBias < 0.70 {
		t.Errorf("baseline int worst bias = %.3f, want high (paper: 0.899)", base.IntRF.WorstBias)
	}
	if isv.IntRF.WorstBias > 0.60 {
		t.Errorf("ISV int worst bias = %.3f, want ≈ 0.5 (paper: 0.485)", isv.IntRF.WorstBias)
	}
	if isv.IntRF.WorstBias >= base.IntRF.WorstBias {
		t.Error("ISV must improve on the baseline")
	}
	if isv.IntRF.RepairWrites == 0 {
		t.Error("ISV performed no repair writes")
	}
}

func TestMispredictionsSlowTheCore(t *testing.T) {
	// The same instruction stream with a larger redirect penalty must
	// take longer.
	slowCfg := DefaultConfig()
	slowCfg.RedirectPenalty = 60
	fast := Run(DefaultConfig(), shortTrace(trace.Office, 2))
	slow := Run(slowCfg, shortTrace(trace.Office, 2))
	if slow.CPI <= fast.CPI {
		t.Errorf("redirect penalty 60 CPI (%.3f) should exceed penalty 12 CPI (%.3f)",
			slow.CPI, fast.CPI)
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run with invalid config did not panic")
		}
	}()
	Run(Config{}, shortTrace(trace.Office, 0))
}

package pipeline

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"penelope/internal/cache"
	"penelope/internal/regfile"
	"penelope/internal/sched"
	"penelope/internal/trace"
)

// TestRunVariantsMatchesSeparateRuns requires one shared timing pass over
// the mitigation variants {off, ISV, plan, ISV+plan} to return, per
// variant, the bit-identical Results of a separate RunBatch with that
// config, on several banks and worker counts. It also pins the invariant
// the sharing rests on: in the separate runs, no mitigation changes the
// cycle count, the uop count or the DL0 and DTLB behaviour.
func TestRunVariantsMatchesSeparateRuns(t *testing.T) {
	plan := sched.BuildPlan(Run(DefaultConfig(), trace.Record(trace.Multimedia, 1, 4000).Cursor()).Sched)
	variants := []Mitigation{{}, {EnableISV: true}, {SchedPlan: plan}, {EnableISV: true, SchedPlan: plan}}
	banks := []*trace.Bank{trace.NewBank(2000, 120), trace.NewBank(1600, 90), trace.NewBank(2400, 170)}
	for bi, b := range banks {
		for _, workers := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
			got := RunVariants(DefaultConfig(), variants, AccountAll, b.Sources(), workers)
			if len(got) != len(variants) {
				t.Fatalf("bank %d: %d result sets for %d variants", bi, len(got), len(variants))
			}
			var base []Result
			for v, m := range variants {
				cfg := DefaultConfig()
				cfg.EnableISV, cfg.SchedPlan = m.EnableISV, m.SchedPlan
				want := RunBatch(cfg, b.Sources(), workers)
				if !reflect.DeepEqual(got[v], want) {
					t.Errorf("bank %d, workers %d: variant %+v differs from its separate run", bi, workers, m)
				}
				if v == 0 {
					base = want
					continue
				}
				for i, r := range want {
					o := base[i]
					if r.Cycles != o.Cycles || r.Uops != o.Uops || !reflect.DeepEqual(r.DL0Stats, o.DL0Stats) || !reflect.DeepEqual(r.DTLBStats, o.DTLBStats) {
						t.Errorf("bank %d, trace %s: variant %+v changed timing: cycles %d vs %d, uops %d vs %d",
							bi, r.Trace, m, r.Cycles, o.Cycles, r.Uops, o.Uops)
					}
				}
			}
		}
	}
}

// TestViewReplayMatchesFreshRecording requires a bank of prefix views of
// longer recordings to report, for every mitigation variant, the
// deep-equal Results of the same traces recorded fresh at the bank's
// length.
func TestViewReplayMatchesFreshRecording(t *testing.T) {
	plan := sched.BuildPlan(Run(DefaultConfig(), trace.Record(trace.Multimedia, 1, 4000).Cursor()).Sched)
	variants := []Mitigation{{}, {EnableISV: true}, {SchedPlan: plan}, {EnableISV: true, SchedPlan: plan}}
	const length, stride = 1700, 90
	views := trace.NewBankFrom(length, stride, func(id trace.SuiteID, idx, n int) *trace.Recording {
		return trace.Record(id, idx, n+100*(1+idx%4))
	})
	got := RunVariants(DefaultConfig(), variants, AccountAll, views.Sources(), 0)
	want := RunVariants(DefaultConfig(), variants, AccountAll, trace.NewBank(length, stride).Sources(), 0)
	if !reflect.DeepEqual(got, want) {
		t.Error("results over prefix views differ from results over fresh recordings")
	}
}

// TestAccountedMatchesFull requires a run that accounts only some
// structures to report, for every variant, exactly the full run's
// Result with the unaccounted structures' reports left at their zero
// values: every timing, cache and adder figure and every accounted
// report deep-equal, on several banks and worker counts.
func TestAccountedMatchesFull(t *testing.T) {
	plan := sched.BuildPlan(Run(DefaultConfig(), trace.Record(trace.Multimedia, 1, 4000).Cursor()).Sched)
	variants := []Mitigation{{}, {EnableISV: true}, {SchedPlan: plan}, {EnableISV: true, SchedPlan: plan}}
	banks := []*trace.Bank{trace.NewBank(2000, 120), trace.NewBank(1600, 90), trace.NewBank(2400, 170)}
	for bi, b := range banks {
		for _, workers := range []int{1, 3} {
			full := RunVariants(DefaultConfig(), variants, AccountAll, b.Sources(), workers)
			for _, acc := range []Accounts{AccountNone, AccountRegfiles, AccountScheduler, AccountAll} {
				got := RunVariants(DefaultConfig(), variants, acc, b.Sources(), workers)
				for v, m := range variants {
					for i, want := range full[v] {
						if acc&AccountRegfiles == 0 {
							want.IntRF, want.FPRF = regfile.Report{}, regfile.Report{}
						}
						if acc&AccountScheduler == 0 {
							want.Sched = sched.Report{}
						}
						if !reflect.DeepEqual(got[v][i], want) {
							t.Errorf("bank %d, workers %d, accounts %b, variant %+v, trace %s: differs from the full run",
								bi, workers, acc, m, want.Trace)
						}
					}
				}
			}
		}
	}
}

// TestReusedCoreMatchesFresh runs one core over a shuffled source list
// with repeats — replay cursors and a generator — under the stateful
// LineDynamic DL0 scheme, and requires every Result to deep-equal that
// of a fresh core on the same source.
func TestReusedCoreMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DL0Options = cache.Options{
		Scheme: cache.SchemeLineDynamic, InvertRatio: 0.6, PeriodCycles: 1500,
		WarmupCycles: 30, TestCycles: 30, MissThreshold: 0.02, PortFreeProb: 1, Seed: 17,
	}
	cfg.DTLBOptions = cache.Options{Scheme: cache.SchemeLineFixed, InvertRatio: 0.5, Seed: 2}
	plan := sched.BuildPlan(Run(DefaultConfig(), trace.Record(trace.Server, 0, 3000).Cursor()).Sched)
	variants := []Mitigation{{}, {EnableISV: true, SchedPlan: plan}}

	gen := trace.NewTrace(trace.SpecFP2000, 2, 2500)
	var sources []trace.Source
	for _, src := range trace.NewBank(2500, 130).Sources() {
		sources = append(sources, src, src)
	}
	sources = append(sources, gen, gen)
	rand.New(rand.NewSource(7)).Shuffle(len(sources), func(i, j int) {
		sources[i], sources[j] = sources[j], sources[i]
	})

	c := NewCore(cfg, variants, AccountAll)
	for i, src := range sources {
		c.Run(src)
		fresh := NewCore(cfg, variants, AccountAll)
		fresh.Run(src)
		for _, m := range variants {
			if got, want := c.Result(m), fresh.Result(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d (%s), variant %+v: reused core differs from a fresh one", i, want.Trace, m)
			}
		}
	}
}

// TestCoreReplayAllocatesNothing pins the reuse contract: on a warmed
// core, a full replay of a recording — reset included, Result excluded —
// makes no allocation, for every accountant and cache scheme.
func TestCoreReplayAllocatesNothing(t *testing.T) {
	plan := sched.BuildPlan(Run(DefaultConfig(), trace.Record(trace.Multimedia, 1, 4000).Cursor()).Sched)
	src := trace.Record(trace.Multimedia, 0, 2000).Cursor()
	for name, cfg := range determinismConfigs(t) {
		c := NewCore(cfg, []Mitigation{{}, {EnableISV: true, SchedPlan: plan}}, AccountAll)
		c.Run(src)
		if n := testing.AllocsPerRun(5, func() { c.Run(src) }); n != 0 {
			t.Errorf("%s: core replay allocates %v per run", name, n)
		}
	}
}

package pipeline

import (
	"reflect"
	"runtime"
	"testing"

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
			got := RunVariants(DefaultConfig(), variants, b.Sources(), workers)
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

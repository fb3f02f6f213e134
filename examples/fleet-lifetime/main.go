// Fleet lifetime: age a population of chips with process variation
// through a multi-year schedule — including a mid-life wearout attack —
// and watch the baseline fleet burn through a guardband budget the
// Penelope fleet never touches. Demonstrates the lifetime engine
// directly (synthetic duty profiles) plus checkpoint/resume.
package main

import (
	"fmt"
	"log"

	"penelope/internal/circuit"
	"penelope/internal/lifetime"
)

func main() {
	params := lifetime.DefaultParams()
	delay := circuit.NewDelayModel(circuit.PathStats{Depth: 21, Narrow: 18},
		params.MaxVTHShift, params.MaxGuardband)

	// Duty profiles: worst-case stress duty per structure, as the
	// experiments layer would measure them from the workload. The
	// attack phase pins every structure at full stress.
	structures := []string{"adder", "int-regfile", "fp-regfile", "scheduler"}
	baseline := []float64{1.0, 0.84, 0.97, 1.0}
	penelope := []float64{0.57, 0.64, 0.77, 0.82}
	attack := []float64{1, 1, 1, 1}

	run := func(name string, duty []float64) *lifetime.Engine {
		eng, err := lifetime.New(lifetime.Config{
			Structures: structures,
			Phases: []lifetime.Phase{
				{Name: "service", Years: 3, Duty: duty},
				{Name: "attack", Years: 1, Duty: attack},
				{Name: "service", Years: 3, Duty: duty},
			},
			Population: 20000,
			EpochYears: 30 / 365.25,
			Seed:       1,
			Sigma:      0.08,
			Limit:      lifetime.DefaultLimit,
			Params:     params,
			Delay:      delay,
		})
		if err != nil {
			log.Fatal(err)
		}

		// Checkpoint mid-run and resume: the rest of the trajectory is
		// bit-identical to never having stopped.
		for eng.Epoch() < eng.TotalEpochs()/2 {
			eng.Step(0)
		}
		ckpt, err := eng.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		resumed, err := lifetime.FromSnapshot(ckpt)
		if err != nil {
			log.Fatal(err)
		}
		resumed.Run(0)

		fmt.Printf("\n%s fleet (20k chips, 7 years, 1-year attack):\n", name)
		fmt.Printf("%6s %6s %8s %8s %9s\n", "years", "phase", "mean", "p99", "violated")
		for i, st := range resumed.Stats() {
			if (i+1)%12 != 0 && i != resumed.TotalEpochs()-1 {
				continue
			}
			fmt.Printf("%6.2f %7s %7.2f%% %7.2f%% %8.2f%%\n",
				st.Years, st.Phase, st.MeanGuardband*100, st.P99Guardband*100,
				st.ViolatedFraction*100)
		}
		if y := resumed.FirstViolationYears(); y >= 0 {
			fmt.Printf("first chip exceeded the %.0f%% budget after %.2f years\n",
				lifetime.DefaultLimit*100, y)
		} else {
			fmt.Printf("no chip ever exceeded the %.0f%% budget\n", lifetime.DefaultLimit*100)
		}
		return resumed
	}

	b := run("baseline", baseline)
	p := run("penelope", penelope)
	bl, pl := b.Stats(), p.Stats()
	fmt.Printf("\nend-of-life mean guardband: baseline %.2f%% -> penelope %.2f%%\n",
		bl[len(bl)-1].MeanGuardband*100, pl[len(pl)-1].MeanGuardband*100)
}

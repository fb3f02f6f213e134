// regfile-isv demonstrates the §4.4 register-file mechanism in
// isolation: biased integer values produce heavily skewed per-bit wear,
// and the ISV invert-at-release technique (RINV register, write-port
// reuse, timestamp gating) pulls every bit back toward the balanced 50%
// that minimizes NBTI guardband and Vmin.
package main

import (
	"fmt"
	"math/rand"

	"penelope/internal/nbti"
	"penelope/internal/regfile"
)

func run(isv bool) regfile.Report {
	f := regfile.New(regfile.Config{
		Name: "int", Entries: 64, Bits: 32, WritePorts: 4,
		RINVPeriod: 128, EnableISV: isv,
	})
	rng := rand.New(rand.NewSource(9))
	type live struct {
		reg   int
		until uint64
	}
	var inFlight []live
	// The file is an accountant: its owner keeps the FIFO free list, as
	// the pipeline core does.
	free := make([]int, 64)
	for i := range free {
		free[i] = i
	}
	const cycles = 60000
	for cyc := uint64(0); cyc < cycles; cyc++ {
		keep := inFlight[:0]
		for _, l := range inFlight {
			if l.until <= cyc {
				f.Release(l.reg, cyc)
				free = append(free, l.reg)
			} else {
				keep = append(keep, l)
			}
		}
		inFlight = keep
		if rng.Float64() < 0.6 && len(free) > 0 {
			r := free[0]
			free = free[1:]
			f.Allocate(r, cyc)
			f.Write(r, value(rng), 0, cyc)
			inFlight = append(inFlight, live{reg: r, until: cyc + uint64(5+rng.Intn(40))})
		}
	}
	f.Finish(cycles)
	return f.Report()
}

// value draws from the biased integer mixture of §1.1.
func value(rng *rand.Rand) uint64 {
	switch r := rng.Float64(); {
	case r < 0.3:
		return 0
	case r < 0.7:
		return uint64(rng.Intn(256))
	case r < 0.78:
		return uint64(uint32(-int32(rng.Intn(100) + 1)))
	default:
		return uint64(rng.Uint32())
	}
}

func main() {
	base := run(false)
	isv := run(true)
	params := nbti.DefaultParams()

	fmt.Printf("%4s %10s %10s\n", "bit", "baseline", "ISV")
	for i := 0; i < 32; i++ {
		fmt.Printf("%4d %9.1f%% %9.1f%%\n", i, base.Biases[i]*100, isv.Biases[i]*100)
	}
	fmt.Printf("\nworst cell bias: baseline %.1f%% -> ISV %.1f%% (paper: 89.9%% -> 48.5%%)\n",
		base.WorstBias*100, isv.WorstBias*100)
	fmt.Printf("guardband:       baseline %.1f%% -> ISV %.1f%%\n",
		params.Guardband(base.WorstBias)*100, params.Guardband(isv.WorstBias)*100)
	fmt.Printf("Vmin increase:   baseline %.1f%% -> ISV %.1f%%\n",
		params.VminIncrease(base.WorstBias)*100, params.VminIncrease(isv.WorstBias)*100)
	fmt.Printf("repair writes: %d (%d discarded for lack of ports)\n",
		isv.RepairWrites, isv.RepairDiscarded)
}

// Package metric implements the NBTIefficiency metric of paper §4.2 and
// the processor-level combination rules of equations (2)–(4).
//
// NBTIefficiency weighs what a mitigation technique costs against what it
// saves. Like PD³ (ED²) for power-aware design, delay is cubed; the
// residual NBTI guardband stretches the effective cycle time and is
// therefore folded into the delay before cubing:
//
//	NBTIefficiency = (Delay · (1 + NBTIguardband))³ · TDP    (eq. 1)
//
// This grouping reproduces every value printed in the paper: the baseline
// with a 20% guardband scores 1.2³ = 1.73, periodic inversion
// (1.1·1.02)³ = 1.41, the adder 1.074³ = 1.24, the register file
// 1.036³·1.01 = 1.12, the scheduler 1.067³·1.02 = 1.24, the DL0
// (1.0053·1.02)³·1.01 = 1.09 and the whole Penelope processor
// (1.007·1.074)³·1.01 = 1.28.
//
// All parameters are relative to the unprotected, unguardbanded design:
// Delay 1.0 means no slowdown, TDP 1.0 means no extra peak power, and the
// guardband term charges the residual cycle-time margin the block still
// needs. Lower is better.
package metric

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Efficiency returns (delay·(1+guardband))³·tdp (eq. 1). Delay and TDP
// are relative factors (1.0 = baseline); guardband is a fraction of the
// cycle time (e.g. 0.20 for a 20% guardband).
func Efficiency(delay, guardband, tdp float64) float64 {
	d := delay * (1 + guardband)
	return d * d * d * tdp
}

// EfficiencyExp generalizes eq. 1 with a configurable delay exponent, for
// ablating the PD¹/PD²/PD³ choice.
func EfficiencyExp(delay, guardband, tdp float64, delayExp float64) float64 {
	return math.Pow(delay*(1+guardband), delayExp) * tdp
}

// Block is the cost/benefit summary of one processor block under one
// mitigation technique, in the units eq. 1 expects.
type Block struct {
	Name string

	// CPIFactor is the relative cycles-per-instruction contribution of
	// the technique (1.0 = no performance loss). CPI effects from
	// different blocks interact, so whole-processor evaluation should
	// pass the jointly simulated CPI via Processor's cpiCombined
	// argument; per-block CPIFactor is used when evaluating the block
	// alone.
	CPIFactor float64

	// CycleTimeFactor is the relative cycle time the technique imposes
	// (e.g. 1.10 if an XNOR in the access path costs 1 FO4 out of 10).
	CycleTimeFactor float64

	// Guardband is the residual NBTI guardband the block requires, as a
	// fraction of cycle time.
	Guardband float64

	// TDPFactor is the relative thermal design power of the block under
	// the technique (1.0 = unchanged).
	TDPFactor float64
}

// Delay returns the block's stand-alone relative delay:
// CPIFactor·CycleTimeFactor.
func (b Block) Delay() float64 { return b.CPIFactor * b.CycleTimeFactor }

// Efficiency returns the block's stand-alone NBTIefficiency.
func (b Block) Efficiency() float64 {
	return Efficiency(b.Delay(), b.Guardband, b.TDPFactor)
}

// ProcessorSummary aggregates blocks into whole-processor figures per
// equations (2)–(4).
type ProcessorSummary struct {
	Delay     float64 // CPI_combined · max CycleTimeFactor  (eq. 2)
	TDP       float64 // mean of block TDP factors           (eq. 3, equal weights)
	Guardband float64 // max block guardband                 (eq. 4)
}

// Efficiency returns the whole-processor NBTIefficiency.
func (s ProcessorSummary) Efficiency() float64 {
	return Efficiency(s.Delay, s.Guardband, s.TDP)
}

// Processor combines per-block costs into processor-level Delay, TDP and
// guardband. cpiCombined is the jointly simulated relative CPI of all
// mechanisms running together (paper §4.2: per-block CPIs "cannot be
// combined directly and require full simulation"); pass 1.0 if no
// mechanism affects CPI. Each block is weighted equally in TDP, as in the
// paper's five-block example (§4.7).
func Processor(cpiCombined float64, blocks []Block) ProcessorSummary {
	if len(blocks) == 0 {
		return ProcessorSummary{Delay: cpiCombined, TDP: 1, Guardband: 0}
	}
	var s ProcessorSummary
	maxCT := 0.0
	var tdp float64
	for _, b := range blocks {
		if b.CycleTimeFactor > maxCT {
			maxCT = b.CycleTimeFactor
		}
		tdp += b.TDPFactor
		if b.Guardband > s.Guardband {
			s.Guardband = b.Guardband
		}
	}
	s.Delay = cpiCombined * maxCT
	s.TDP = tdp / float64(len(blocks))
	return s
}

// Comparison is a named technique with its efficiency, for report tables.
type Comparison struct {
	Name       string
	Block      Block
	Efficiency float64
}

// Compare evaluates each block stand-alone and returns the comparisons
// sorted best (lowest efficiency) first.
func Compare(blocks []Block) []Comparison {
	out := make([]Comparison, len(blocks))
	for i, b := range blocks {
		out[i] = Comparison{Name: b.Name, Block: b, Efficiency: b.Efficiency()}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Efficiency < out[j].Efficiency })
	return out
}

// FormatTable renders comparisons as an aligned text table.
func FormatTable(cs []Comparison) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %8s %10s %8s %12s\n", "technique", "delay", "guardband", "TDP", "efficiency")
	for _, c := range cs {
		fmt.Fprintf(&sb, "%-28s %8.3f %9.1f%% %8.3f %12.3f\n",
			c.Name, c.Block.Delay(), c.Block.Guardband*100, c.Block.TDPFactor, c.Efficiency)
	}
	return sb.String()
}

// Baseline returns the block the paper uses as reference: no mitigation,
// paying the full 20% guardband (NBTIefficiency 1.73, §4.2).
func Baseline() Block {
	return Block{Name: "baseline (full guardband)", CPIFactor: 1, CycleTimeFactor: 1, Guardband: 0.20, TDPFactor: 1}
}

// PeriodicInversion returns the conventional alternative for memory-like
// blocks: operate inverted half the time, paying one FO4 of XNOR delay in
// a 10 FO4 cycle but cutting the guardband 10X (NBTIefficiency 1.41,
// §4.2).
func PeriodicInversion() Block {
	return Block{Name: "periodic inversion", CPIFactor: 1, CycleTimeFactor: 1.10, Guardband: 0.02, TDPFactor: 1}
}

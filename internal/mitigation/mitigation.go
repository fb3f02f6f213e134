// Package mitigation implements the reusable NBTI-mitigation strategy
// layer of paper §3: the Figure 3 casuistic that picks a technique per
// bit cell, the RINV repair register that supplies the values written
// into idle entries, duty counters implementing ALL1-K%, and the
// round-robin idle-input injector for combinational blocks.
//
// The concrete structures (register file, scheduler, caches) consume this
// package; it holds everything that is generic across them.
package mitigation

import "fmt"

// Technique enumerates the per-bit repair techniques of §3.2.2.
type Technique int

// Techniques, in the order Figure 3 considers them. SelfBalanced and
// Uncovered are the two non-repair outcomes §4.5 describes: tags and MOB
// ids need nothing, the valid bit can never be repaired.
const (
	// TechNone marks an unclassified bit.
	TechNone Technique = iota
	// TechALL1 writes "1" into the bit whenever its entry is free.
	TechALL1
	// TechALL0 writes "0" into the bit whenever its entry is free.
	TechALL0
	// TechALL1K writes "1" during K% of free time and "0" otherwise.
	TechALL1K
	// TechALL0K writes "0" during K% of free time and "1" otherwise.
	TechALL0K
	// TechISV writes inverted sampled values so entries hold inverted
	// contents half of the overall time.
	TechISV
	// TechSelfBalanced marks a bit whose activity balances itself
	// (register tags, MOB ids); no action is taken.
	TechSelfBalanced
	// TechUncovered marks a bit that can never be repaired because its
	// contents are always live (the valid bit).
	TechUncovered
	// NumTechniques counts the techniques, for dense per-technique
	// arrays.
	NumTechniques
)

var techniqueNames = map[Technique]string{
	TechNone: "none", TechALL1: "ALL1", TechALL0: "ALL0",
	TechALL1K: "ALL1-K%", TechALL0K: "ALL0-K%", TechISV: "ISV",
	TechSelfBalanced: "self-balanced", TechUncovered: "uncovered",
}

// String returns the paper's name for the technique.
func (t Technique) String() string {
	if s, ok := techniqueNames[t]; ok {
		return s
	}
	return fmt.Sprintf("technique(%d)", int(t))
}

// BitPlan is the classification outcome for one bit cell.
type BitPlan struct {
	Technique Technique
	// K applies to TechALL1K/TechALL0K: the fraction of free time the
	// repair value (1 for ALL1-K%, 0 for ALL0-K%) is written.
	K float64
}

// SelfBalancedTolerance is how close to 50% a bit's overall zero bias
// must already be for the classifier to leave it alone.
const SelfBalancedTolerance = 0.05

// ClassifyBit implements the Figure 3 casuistic for one bit cell.
//
// occupancy is the fraction of total time the entry is busy; busyZeroBias
// is the fraction of busy time the bit holds "0". Following the figure:
//
//	IF occupancy > 50%:
//	    IF occupancy·bias0 > 50%        -> ALL1   (can't fully balance)
//	    ELSE IF occupancy·bias1 > 50%   -> ALL0
//	    ELSE IF bias0 > bias1           -> ALL1-K%
//	    ELSE                            -> ALL0-K%
//	ELSE                                -> ISV
//
// K is chosen so the overall bias lands exactly on 50% (§4.5: "K is
// computed as the value that would give us ideal balancing"). A bit whose
// overall bias is already within SelfBalancedTolerance of 50% is left
// alone (the register-tag / MOB-id case of §4.5).
func ClassifyBit(occupancy, busyZeroBias float64) BitPlan {
	if occupancy < 0 || occupancy > 1 || busyZeroBias < 0 || busyZeroBias > 1 {
		panic("mitigation: occupancy and bias must be in [0,1]")
	}
	// Overall bias if nothing is done and idle contents mirror the data
	// distribution (stale values).
	overall := busyZeroBias
	if d := overall - 0.5; d >= -SelfBalancedTolerance && d <= SelfBalancedTolerance {
		return BitPlan{Technique: TechSelfBalanced}
	}
	if occupancy >= 1 {
		return BitPlan{Technique: TechUncovered}
	}
	if occupancy > 0.5 {
		bias0 := busyZeroBias
		bias1 := 1 - busyZeroBias
		switch {
		case occupancy*bias0 > 0.5:
			return BitPlan{Technique: TechALL1, K: 1}
		case occupancy*bias1 > 0.5:
			return BitPlan{Technique: TechALL0, K: 1}
		case bias0 > bias1:
			return BitPlan{Technique: TechALL1K, K: solveK(occupancy, bias0)}
		default:
			return BitPlan{Technique: TechALL0K, K: solveK(occupancy, bias1)}
		}
	}
	return BitPlan{Technique: TechISV}
}

// solveK returns the fraction of free time the repair value must be held
// for perfect balancing: occ·bias + (1-occ)·(1-K) = 0.5, with bias the
// busy-time probability of the value being repaired against.
func solveK(occupancy, bias float64) float64 {
	free := 1 - occupancy
	k := 1 - (0.5-occupancy*bias)/free
	if k < 0 {
		return 0
	}
	if k > 1 {
		return 1
	}
	return k
}

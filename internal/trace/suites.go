package trace

import (
	"fmt"
	"math/rand"
)

// SuiteID enumerates the benchmark suites of paper Table 1.
type SuiteID int

// The ten suites of Table 1.
const (
	Encoder SuiteID = iota
	SpecFP2000
	SpecINT2000
	Kernels
	Multimedia
	Office
	Productivity
	Server
	Workstation
	SPEC2006
	NumSuites
)

// Profile is the statistical recipe a suite's traces are generated from.
// All fractions are probabilities per uop; see gen.go for how each knob
// is consumed.
type Profile struct {
	// Instruction mix.
	LoadFrac, StoreFrac, BranchFrac, FPFrac, MulFrac float64
	// Fraction of integer uops that carry an immediate.
	ImmFrac float64
	// Branch taken probability.
	BranchTaken float64
	// Integer value mixture (remainder is uniform 32-bit).
	ZeroValFrac, SmallValFrac, NegValFrac, AddrValFrac float64
	// Branch misprediction probability (drains the pipeline window).
	MispredictFrac float64
	// Probability a uop's fetch suffers an I-cache miss bubble.
	ICacheMissFrac float64
	// Memory behaviour.
	WorkingSetLines int     // distinct cold cache lines
	HotFrac         float64 // probability an access hits the hot subset
	StreamFrac      float64 // probability an access streams sequentially
	BurstFrac       float64 // probability an access re-touches the last line
	PageSpread      int     // cold-line stride in 64B lines (1 = dense)
	// Dependency distance: mean distance (in uops) to the producer of a
	// source operand; smaller = less ILP.
	DepDistance int
	// Probability a source uses a partial register (AH/BH/CH/DH),
	// setting the scheduler's shift1/shift2 bits.
	PartialRegFrac float64
}

// Suite is one row of Table 1.
type Suite struct {
	ID          SuiteID
	Name        string
	Description string
	Count       int // number of traces in the workload
	Profile     Profile
}

var suites = []Suite{
	{Encoder, "encoder", "Audio/video encoding", 62, Profile{
		LoadFrac: 0.28, StoreFrac: 0.12, BranchFrac: 0.10, FPFrac: 0.05, MulFrac: 0.06,
		ImmFrac: 0.30, BranchTaken: 0.62, MispredictFrac: 0.04, ICacheMissFrac: 0.008,
		ZeroValFrac: 0.25, SmallValFrac: 0.35, NegValFrac: 0.05, AddrValFrac: 0.10,
		WorkingSetLines: 384, HotFrac: 0.55, StreamFrac: 0.15, BurstFrac: 0.5, PageSpread: 2,
		DepDistance: 6, PartialRegFrac: 0.03,
	}},
	{SpecFP2000, "specfp2000", "Floating-point specs", 41, Profile{
		LoadFrac: 0.30, StoreFrac: 0.10, BranchFrac: 0.05, FPFrac: 0.30, MulFrac: 0.02,
		ImmFrac: 0.20, BranchTaken: 0.70, MispredictFrac: 0.02, ICacheMissFrac: 0.004,
		ZeroValFrac: 0.20, SmallValFrac: 0.25, NegValFrac: 0.03, AddrValFrac: 0.10,
		WorkingSetLines: 1024, HotFrac: 0.35, StreamFrac: 0.35, BurstFrac: 0.45, PageSpread: 2,
		DepDistance: 10, PartialRegFrac: 0.01,
	}},
	{SpecINT2000, "specint2000", "Integer specs", 33, Profile{
		LoadFrac: 0.26, StoreFrac: 0.11, BranchFrac: 0.14, FPFrac: 0.00, MulFrac: 0.02,
		ImmFrac: 0.32, BranchTaken: 0.60, MispredictFrac: 0.06, ICacheMissFrac: 0.012,
		ZeroValFrac: 0.30, SmallValFrac: 0.35, NegValFrac: 0.06, AddrValFrac: 0.12,
		WorkingSetLines: 512, HotFrac: 0.50, StreamFrac: 0.10, BurstFrac: 0.5, PageSpread: 2,
		DepDistance: 5, PartialRegFrac: 0.04,
	}},
	{Kernels, "kernels", "VectorAdd, FIRs", 53, Profile{
		LoadFrac: 0.35, StoreFrac: 0.15, BranchFrac: 0.06, FPFrac: 0.10, MulFrac: 0.05,
		ImmFrac: 0.25, BranchTaken: 0.85, MispredictFrac: 0.01, ICacheMissFrac: 0.002,
		ZeroValFrac: 0.20, SmallValFrac: 0.50, NegValFrac: 0.02, AddrValFrac: 0.08,
		WorkingSetLines: 256, HotFrac: 0.30, StreamFrac: 0.50, BurstFrac: 0.35, PageSpread: 1,
		DepDistance: 12, PartialRegFrac: 0.01,
	}},
	{Multimedia, "multimedia", "WMedia, photoshop", 85, Profile{
		LoadFrac: 0.27, StoreFrac: 0.12, BranchFrac: 0.11, FPFrac: 0.08, MulFrac: 0.05,
		ImmFrac: 0.30, BranchTaken: 0.63, MispredictFrac: 0.05, ICacheMissFrac: 0.012,
		ZeroValFrac: 0.30, SmallValFrac: 0.35, NegValFrac: 0.04, AddrValFrac: 0.10,
		WorkingSetLines: 448, HotFrac: 0.50, StreamFrac: 0.20, BurstFrac: 0.5, PageSpread: 2,
		DepDistance: 7, PartialRegFrac: 0.03,
	}},
	{Office, "office", "Excel, Word, Powerpoint", 75, Profile{
		LoadFrac: 0.24, StoreFrac: 0.12, BranchFrac: 0.17, FPFrac: 0.01, MulFrac: 0.01,
		ImmFrac: 0.35, BranchTaken: 0.58, MispredictFrac: 0.07, ICacheMissFrac: 0.024,
		ZeroValFrac: 0.35, SmallValFrac: 0.35, NegValFrac: 0.05, AddrValFrac: 0.15,
		WorkingSetLines: 160, HotFrac: 0.65, StreamFrac: 0.05, BurstFrac: 0.6, PageSpread: 4,
		DepDistance: 4, PartialRegFrac: 0.05,
	}},
	{Productivity, "productivity", "Internet contents creation", 45, Profile{
		LoadFrac: 0.25, StoreFrac: 0.12, BranchFrac: 0.15, FPFrac: 0.02, MulFrac: 0.02,
		ImmFrac: 0.33, BranchTaken: 0.59, MispredictFrac: 0.06, ICacheMissFrac: 0.02,
		ZeroValFrac: 0.32, SmallValFrac: 0.34, NegValFrac: 0.05, AddrValFrac: 0.13,
		WorkingSetLines: 224, HotFrac: 0.60, StreamFrac: 0.08, BurstFrac: 0.55, PageSpread: 4,
		DepDistance: 5, PartialRegFrac: 0.04,
	}},
	{Server, "server", "TPC-C", 55, Profile{
		LoadFrac: 0.30, StoreFrac: 0.14, BranchFrac: 0.13, FPFrac: 0.00, MulFrac: 0.01,
		ImmFrac: 0.28, BranchTaken: 0.57, MispredictFrac: 0.06, ICacheMissFrac: 0.03,
		ZeroValFrac: 0.28, SmallValFrac: 0.30, NegValFrac: 0.04, AddrValFrac: 0.20,
		WorkingSetLines: 1024, HotFrac: 0.40, StreamFrac: 0.05, BurstFrac: 0.45, PageSpread: 3,
		DepDistance: 4, PartialRegFrac: 0.03,
	}},
	{Workstation, "workstation", "CAD, rendering", 49, Profile{
		LoadFrac: 0.28, StoreFrac: 0.11, BranchFrac: 0.09, FPFrac: 0.18, MulFrac: 0.04,
		ImmFrac: 0.24, BranchTaken: 0.66, MispredictFrac: 0.03, ICacheMissFrac: 0.008,
		ZeroValFrac: 0.22, SmallValFrac: 0.30, NegValFrac: 0.03, AddrValFrac: 0.12,
		WorkingSetLines: 768, HotFrac: 0.45, StreamFrac: 0.25, BurstFrac: 0.45, PageSpread: 2,
		DepDistance: 8, PartialRegFrac: 0.02,
	}},
	{SPEC2006, "spec2006", "Specs", 33, Profile{
		LoadFrac: 0.28, StoreFrac: 0.12, BranchFrac: 0.12, FPFrac: 0.12, MulFrac: 0.03,
		ImmFrac: 0.28, BranchTaken: 0.61, MispredictFrac: 0.05, ICacheMissFrac: 0.016,
		ZeroValFrac: 0.26, SmallValFrac: 0.32, NegValFrac: 0.05, AddrValFrac: 0.12,
		WorkingSetLines: 1024, HotFrac: 0.45, StreamFrac: 0.15, BurstFrac: 0.5, PageSpread: 3,
		DepDistance: 6, PartialRegFrac: 0.03,
	}},
}

// Suites returns all suites in Table 1 order. The returned slice is
// shared; callers must not modify it.
func Suites() []Suite { return suites }

// SuiteByID returns the suite with the given id.
func SuiteByID(id SuiteID) Suite {
	if id < 0 || id >= NumSuites {
		panic(fmt.Sprintf("trace: unknown suite id %d", id))
	}
	return suites[id]
}

// TotalTraces returns the workload size: 531 traces, as in Table 1.
func TotalTraces() int {
	n := 0
	for _, s := range suites {
		n += s.Count
	}
	return n
}

// jitter perturbs a suite profile deterministically per trace so traces
// within a suite differ, the way 62 different encoder runs would.
func jitter(p Profile, rng *rand.Rand) Profile {
	scale := func(f float64, spread float64) float64 {
		v := f * (1 + spread*(rng.Float64()*2-1))
		if v < 0 {
			v = 0
		}
		if v > 0.9 {
			v = 0.9
		}
		return v
	}
	p.LoadFrac = scale(p.LoadFrac, 0.15)
	p.StoreFrac = scale(p.StoreFrac, 0.15)
	p.BranchFrac = scale(p.BranchFrac, 0.15)
	p.FPFrac = scale(p.FPFrac, 0.25)
	p.MulFrac = scale(p.MulFrac, 0.25)
	p.ImmFrac = scale(p.ImmFrac, 0.10)
	p.BranchTaken = 0.4 + 0.55*scale(p.BranchTaken, 0.10)/0.95
	p.ZeroValFrac = scale(p.ZeroValFrac, 0.20)
	p.SmallValFrac = scale(p.SmallValFrac, 0.20)
	p.HotFrac = scale(p.HotFrac, 0.20)
	p.StreamFrac = scale(p.StreamFrac, 0.20)
	ws := float64(p.WorkingSetLines) * (0.5 + rng.Float64()*1.5)
	p.WorkingSetLines = int(ws)
	if p.WorkingSetLines < 16 {
		p.WorkingSetLines = 16
	}
	return p
}

// SampleTraces returns every stride-th trace of the workload, preserving
// suite mix, for quicker experiments. Stride must be positive.
func SampleTraces(length, stride int) []*Trace {
	if stride <= 0 {
		panic("trace: stride must be positive")
	}
	var out []*Trace
	k := 0
	for _, s := range suites {
		for i := 0; i < s.Count; i++ {
			if k%stride == 0 {
				out = append(out, NewTrace(s.ID, i, length))
			}
			k++
		}
	}
	return out
}

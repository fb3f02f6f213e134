// Package pipeline is the trace-driven out-of-order core model used to
// evaluate the Penelope mechanisms (paper §4.1: "an IA32 trace-driven
// Intel production simulator ... resembles the Intel Core
// microarchitecture").
//
// The model renames uops onto physical register files, dispatches them
// into the scheduler, resolves dependences through a scoreboard, applies
// issue-port and adder contention, accesses the DL0 and DTLB for memory
// uops, and retires in order through a ROB. It is approximate — a
// resource-and-latency model, not RTL — but it produces exactly the
// statistics the paper consumes: CPI, structure occupancy and idle time,
// write-port availability, per-bit value bias and cache behaviour.
package pipeline

import (
	"fmt"

	"penelope/internal/cache"
	"penelope/internal/sched"
	"penelope/internal/trace"
)

// AdderPolicy selects how additions are distributed over the adders
// (§4.3: priorities give 11–30% utilization, uniform gives 21%).
type AdderPolicy int

// Adder allocation policies.
const (
	// AdderPriority picks the lowest-numbered free adder, skewing work
	// toward adder 0.
	AdderPriority AdderPolicy = iota
	// AdderUniform distributes additions round-robin.
	AdderUniform
)

// String names the policy.
func (p AdderPolicy) String() string {
	if p == AdderPriority {
		return "priority"
	}
	return "uniform"
}

// Config parameterizes a pipeline run. DefaultConfig supplies the
// Core-like baseline of §4.1.
type Config struct {
	// Front-end and window sizes.
	AllocWidth  int // uops dispatched per cycle
	ROB         int
	RetireWidth int

	// Scheduler.
	SchedEntries int
	AllocPorts   int
	SchedPlan    *sched.Plan
	RINVPeriod   uint64

	// Physical register files.
	IntRegs       int
	FPRegs        int
	IntWritePorts int
	FPWritePorts  int
	EnableISV     bool

	// Execution resources.
	IssuePorts  int
	NumAdders   int
	AdderPolicy AdderPolicy

	// Memory hierarchy.
	DL0Bytes    int
	DL0Line     int
	DL0Ways     int
	DL0Options  cache.Options
	DTLBEntries int
	DTLBWays    int
	PageBytes   int
	DTLBOptions cache.Options
	L2Latency   int // extra cycles on a DL0 miss
	TLBPenalty  int // extra cycles on a DTLB miss

	// RedirectPenalty is the front-end refill delay after a branch
	// misprediction resolves.
	RedirectPenalty int
}

// Mitigation is the part of a Config that changes what register-file
// and scheduler cells store but never when anything happens: ISV and
// scheduler repair writes only use leftover write and allocate ports,
// and a repair write that finds no free port is dropped (§4.4, §4.5).
// Runs that differ only in their Mitigation therefore share one timing
// pass (RunVariants).
type Mitigation struct {
	EnableISV bool
	SchedPlan *sched.Plan
}

// Accounts is the set of structures whose bias accounting a run keeps.
// Accounting only records what the timing state tells it, so every
// timing, cache and adder figure of a Result is the same for any set; a
// structure left out reports its zero value. It is a run argument, not a
// Config field, because it changes what a run measures, never what the
// simulated core does.
type Accounts uint8

// The structures a run can account.
const (
	// AccountRegfiles accounts the integer and FP register files
	// (Result.IntRF and Result.FPRF).
	AccountRegfiles Accounts = 1 << iota
	// AccountScheduler accounts the scheduler (Result.Sched).
	AccountScheduler

	// AccountNone keeps only timing, cache and adder figures.
	AccountNone Accounts = 0
	// AccountAll accounts every structure, as Run and RunBatch do.
	AccountAll = AccountRegfiles | AccountScheduler
)

// mitigation returns the Mitigation a Config selects.
func (c Config) mitigation() Mitigation {
	return Mitigation{EnableISV: c.EnableISV, SchedPlan: c.SchedPlan}
}

// DefaultConfig returns the Core-like configuration used throughout the
// reproduction: 4-wide, 96-entry ROB, 32-entry scheduler, 128-entry
// register files, 32KB 8-way DL0, 128-entry 8-way DTLB.
func DefaultConfig() Config {
	return Config{
		AllocWidth:   4,
		ROB:          96,
		RetireWidth:  4,
		SchedEntries: 32,
		AllocPorts:   4,
		// The paper refreshes RINV "every one million cycles" on
		// 10M-instruction traces; our default run lengths are ~100x
		// shorter, so the period scales down to keep a comparable
		// number of samples per run.
		RINVPeriod: 256,
		// 128-entry register files (§4.4): the full 7-bit tag space is
		// used uniformly, which is what makes the scheduler's tag
		// fields self-balanced (§4.5).
		IntRegs:         128,
		FPRegs:          128,
		IntWritePorts:   4,
		FPWritePorts:    3,
		IssuePorts:      5,
		NumAdders:       6,
		AdderPolicy:     AdderUniform,
		DL0Bytes:        32 * 1024,
		DL0Line:         64,
		DL0Ways:         8,
		DTLBEntries:     128,
		DTLBWays:        8,
		PageBytes:       4096,
		L2Latency:       10,
		TLBPenalty:      30,
		RedirectPenalty: 16,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.AllocWidth <= 0 || c.ROB <= 0 || c.RetireWidth <= 0:
		return fmt.Errorf("pipeline: front-end sizes must be positive")
	case c.SchedEntries <= 0 || c.AllocPorts <= 0:
		return fmt.Errorf("pipeline: scheduler sizes must be positive")
	case c.IntRegs < 32 || c.FPRegs < 16:
		return fmt.Errorf("pipeline: register files too small for architectural state")
	case c.IssuePorts < trace.NumIssuePorts:
		return fmt.Errorf("pipeline: %d issue ports, but uop classes issue on ports 0..%d", c.IssuePorts, trace.NumIssuePorts-1)
	case c.NumAdders <= 0:
		return fmt.Errorf("pipeline: execution resources must be positive")
	case c.DL0Bytes <= 0 || c.DTLBEntries <= 0:
		return fmt.Errorf("pipeline: memory hierarchy must be sized")
	default:
		return nil
	}
}

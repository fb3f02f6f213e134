// Package faultrunner wraps a service.Runner with deterministic fault
// injection for chaos testing: transient errors, panics and delays at
// configurable rates, driven by a seeded counter hash so a given seed
// replays the exact same fault schedule on every run. The chaos suite
// uses it to prove the server's containment story — retries absorb
// transient faults, recover() absorbs panics, timeouts absorb hangs —
// under the race detector, without any nondeterministic flakiness.
package faultrunner

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/mix"
	"penelope/internal/service"
)

// Config sets the fault schedule. Rates are probabilities in [0, 1]
// evaluated independently per invocation; FailFirst short-circuits them
// for the first N invocations, which is the deterministic way to script
// "fails twice, then succeeds".
type Config struct {
	// Seed drives the per-invocation fault decisions; the same seed
	// yields the same schedule.
	Seed uint64
	// FailFirst makes the first N invocations fail with a transient
	// error regardless of the rates.
	FailFirst int
	// ErrorRate is the probability an invocation returns a transient
	// error (wrapped around service.ErrTransient, so the server
	// retries it).
	ErrorRate float64
	// PanicRate is the probability an invocation panics.
	PanicRate float64
	// Delay is injected before every invocation, honouring context
	// cancellation — set it near the server's JobTimeout to exercise
	// the timeout path.
	Delay time.Duration
}

// Injector wraps a Runner and counts what it injected.
type Injector struct {
	cfg  Config
	next service.Runner

	runs   atomic.Uint64
	faults atomic.Uint64
	panics atomic.Uint64
}

// New wraps next with cfg's fault schedule.
func New(cfg Config, next service.Runner) *Injector {
	return &Injector{cfg: cfg, next: next}
}

// Runs, Faults and Panics report what the injector did so far.
func (f *Injector) Runs() uint64   { return f.runs.Load() }
func (f *Injector) Faults() uint64 { return f.faults.Load() }
func (f *Injector) Panics() uint64 { return f.panics.Load() }

// Runner returns the fault-injecting service.Runner.
func (f *Injector) Runner() service.Runner {
	return func(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		n := f.runs.Add(1)
		if f.cfg.Delay > 0 {
			select {
			case <-time.After(f.cfg.Delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if n <= uint64(f.cfg.FailFirst) {
			f.faults.Add(1)
			return nil, fmt.Errorf("faultrunner: scripted fault on run %d: %w", n, service.ErrTransient)
		}
		// Two independent uniforms per invocation, derived from the
		// seeded counter: deterministic, yet uncorrelated decisions.
		h := mix.SplitMix64(f.cfg.Seed + 2*n)
		if f.cfg.ErrorRate > 0 && mix.Float64(h) < f.cfg.ErrorRate {
			f.faults.Add(1)
			return nil, fmt.Errorf("faultrunner: injected fault on run %d: %w", n, service.ErrTransient)
		}
		h = mix.SplitMix64(f.cfg.Seed + 2*n + 1)
		if f.cfg.PanicRate > 0 && mix.Float64(h) < f.cfg.PanicRate {
			f.panics.Add(1)
			panic(fmt.Sprintf("faultrunner: injected panic on run %d", n))
		}
		return f.next(ctx, experiment, o)
	}
}

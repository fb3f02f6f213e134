// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): each driver runs the relevant workload through the
// simulation stack and formats the same rows or series the paper
// reports. The cmd/penelope binary exposes them by id; the test suite
// asserts their shape against the paper's findings.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"unsafe"

	"penelope/internal/lifetime"
	"penelope/internal/memo"
	"penelope/internal/pipeline"
	"penelope/internal/trace"
)

// Options tunes how much workload the experiment drivers run. The zero
// value is not useful; use DefaultOptions (full fidelity is a matter of
// raising TraceLength and lowering TraceStride).
type Options struct {
	// TraceLength is the uop count replayed per trace. The paper used
	// 10M instructions per trace; the default trades absolute numbers
	// (which depend on the substituted workload anyway) for runtime.
	TraceLength int `json:"trace_length"`
	// TraceStride subsamples the 531-trace workload: 1 runs everything,
	// n runs every n-th trace, preserving the suite mix.
	TraceStride int `json:"trace_stride"`

	// Fleet lifetime knobs, consumed by the lifetime and yield
	// experiments (the per-workload drivers ignore them).

	// Population is the number of simulated chips in the fleet.
	Population int `json:"population"`
	// Years is the simulated service life.
	Years float64 `json:"years"`
	// EpochDays is the aggregation step of the lifetime engine: one
	// fleet statistics row per epoch.
	EpochDays float64 `json:"epoch_days"`
	// VariationSigma is the lognormal process-variation spread of the
	// per-chip NBTI parameters. Negative disables variation entirely
	// (zero, like the other fields, normalizes to the default).
	VariationSigma float64 `json:"variation_sigma"`
	// AttackYears inserts an adversarial wearout-attack phase
	// (maximum stress duty on every structure) of this length in the
	// middle of the service life. 0 = no attack.
	AttackYears float64 `json:"attack_years"`
	// FleetSeed roots the deterministic per-chip parameter sampling.
	FleetSeed uint64 `json:"fleet_seed"`

	// Workers caps the lifetime engine's shard fan-out (0 =
	// GOMAXPROCS). Results are bit-identical for every value, so it is
	// execution policy, not an experiment parameter: it is excluded
	// from Key and from the JSON payload envelope, and the HTTP API
	// cannot set it.
	Workers int `json:"-"`
}

// DefaultOptions returns the settings used by the checked-in experiment
// outputs: every 12th trace (45 traces across all ten suites), 12000
// uops each; a 5000-chip fleet aged 7 years in 30-day epochs with 8%
// process variation and no attack phase.
func DefaultOptions() Options {
	return Options{
		TraceLength: 12000, TraceStride: 12,
		Population: 5000, Years: 7, EpochDays: 30,
		VariationSigma: 0.08, AttackYears: 0, FleetSeed: 1,
	}
}

func (o Options) normalized() Options {
	def := DefaultOptions()
	if o.TraceLength <= 0 {
		o.TraceLength = def.TraceLength
	}
	if o.TraceStride <= 0 {
		o.TraceStride = def.TraceStride
	}
	if o.Population <= 0 {
		o.Population = def.Population
	}
	if o.Years <= 0 {
		o.Years = def.Years
	}
	if o.EpochDays <= 0 {
		o.EpochDays = def.EpochDays
	}
	switch {
	case o.VariationSigma < 0:
		o.VariationSigma = 0
	case o.VariationSigma == 0:
		o.VariationSigma = def.VariationSigma
	}
	if o.AttackYears < 0 {
		o.AttackYears = 0
	}
	if o.AttackYears > o.Years {
		o.AttackYears = o.Years
	}
	if o.FleetSeed == 0 {
		o.FleetSeed = def.FleetSeed
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	return o
}

// Request limits: the largest workload Check admits. Each sits far above
// every documented, golden and benchmark request, and far below what
// exhausts a server.
const (
	// MaxBankBytes bounds the trace bank the options would record: 1 GiB,
	// about forty default banks.
	MaxBankBytes = 1 << 30
	// MaxPopulation bounds the fleet size. Each chip costs ~120 bytes of
	// engine state per fleet, and the lifetime experiment ages two.
	MaxPopulation = 1_000_000
	// MaxChipEpochs bounds one fleet engine's work: its population times
	// the epochs of its schedule. The README's million-chip, 7-year run
	// is 8.5×10^7; 2^33 (~8.6×10^9) admits a hundred of those, minutes of
	// engine compute, and is also the longest replay a recovering fleet
	// can face.
	MaxChipEpochs = 1 << 33
)

// Check reports whether the normalized options fit the request limits.
// The bank size is computed from length and stride, and the fleet work
// from the schedule the options imply, rounded to epochs as the engine
// rounds them, so an oversized request is refused before anything is
// allocated for it.
func (o Options) Check() error {
	o = o.normalized()
	if b := trace.BankBytes(o.TraceLength, o.TraceStride); b > MaxBankBytes {
		return fmt.Errorf("experiments: trace_length %d at trace_stride %d needs a %d MiB trace bank, limit %d MiB",
			o.TraceLength, o.TraceStride, b>>20, MaxBankBytes>>20)
	}
	if o.Population > MaxPopulation {
		return fmt.Errorf("experiments: population %d exceeds the limit of %d chips", o.Population, MaxPopulation)
	}
	epochs := lifetime.ScheduleEpochs(fleetSchedule(nil, true, o), o.EpochDays/365.25)
	if work := float64(o.Population) * epochs; !(work <= MaxChipEpochs) {
		return fmt.Errorf("experiments: %d chips over %g epochs is %g chip-epochs per fleet, limit %d",
			o.Population, epochs, work, MaxChipEpochs)
	}
	return nil
}

// Normalized returns the options with zero and negative fields replaced
// by the defaults — the canonical form Key, the result payloads and the
// experiment service report.
func (o Options) Normalized() Options { return o.normalized() }

// Key canonicalizes the options into a stable string: zero and
// defaulted fields normalize first, so every Options value that runs
// the same workload maps to the same key. The experiment service keys
// its result memo on it (combined with the experiment id), and the duty
// memo below keys on the trace-only prefix (traceKey). Workers is
// execution policy and deliberately absent.
func (o Options) Key() string {
	o = o.normalized()
	return fmt.Sprintf("%s,pop=%d,years=%g,epoch=%g,sigma=%g,attack=%g,seed=%d",
		o.traceKey(), o.Population, o.Years, o.EpochDays,
		o.VariationSigma, o.AttackYears, o.FleetSeed)
}

// traceKey canonicalizes only the workload-shaping fields — the part of
// the key the recording bank and the fleet duty profiles depend on.
func (o Options) traceKey() string {
	o = o.normalized()
	return fmt.Sprintf("length=%d,stride=%d", o.TraceLength, o.TraceStride)
}

// The drivers' memos: trace recordings keyed by trace, fleet duty
// profiles by traceKey, paired fleet lifetime results by Key.
const (
	// recordingBudget holds the default bank's recordings (every 12th
	// trace, 45 recordings, ~27 MB packed, which Fig 5/6/8, Table 3 and
	// the ablations all replay) beside ~400 more traces at the ~1800-uop
	// lengths of service sweeps (~92 KB each).
	recordingBudget = 64 << 20
	// dutyBudget holds hundreds of ~150-byte profiles: more trace
	// workloads than any sweep or fleet registry touches.
	dutyBudget = 64 << 10
	// trajectoryBudget holds a few hundred default fleets (two 86-epoch
	// trajectories, ~23 KB), so yield reuses a lifetime simulation.
	trajectoryBudget = 8 << 20
)

var (
	recordings = newRecordings(recordingBudget)
	duties     = memo.New[string](dutyBudget, func(d []StructureDuty) int64 {
		return int64(cap(d)) * int64(unsafe.Sizeof(StructureDuty{}))
	})
	trajectories = memo.New[string](trajectoryBudget, func(r LifetimeResult) int64 {
		rows := len(r.Baseline.Epochs) + len(r.Penelope.Epochs)
		return int64(rows) * int64(unsafe.Sizeof(lifetime.EpochStats{})+8*uintptr(len(r.Structures)))
	})
)

// traceID names one trace of the workload, the key of its recording.
type traceID struct {
	suite trace.SuiteID
	idx   int
}

// newRecordings returns an empty recordings memo of budget bytes. Each
// trace's recording is charged its packed bytes at its longest length.
func newRecordings(budget int64) *memo.Memo[traceID, *trace.Recording] {
	return memo.New[traceID](budget, func(r *trace.Recording) int64 { return int64(r.Bytes()) })
}

// RecordingBytes reports what the process's recordings memo charges
// against its budget: the packed bytes of the trace recordings resident
// for replay.
func RecordingBytes() int64 { return recordings.Stats().Bytes }

// record returns a recording of trace (id, idx) at least length uops
// long. Each trace keeps one recording, at the longest length asked of
// it so far: a longer request records the trace again and replaces it,
// a shorter one is served by the resident recording.
func record(id trace.SuiteID, idx, length int) *trace.Recording {
	return must(recordings.DoIf(traceID{id, idx},
		func(r *trace.Recording) bool { return r.Len() >= length },
		func() (*trace.Recording, error) { return trace.Record(id, idx, length), nil }))
}

// bank returns the recording bank for o: prefix views of the memoized
// recordings, so only traces never recorded this long are recorded.
func (o Options) bank() *trace.Bank {
	o = o.normalized()
	return trace.NewBankFrom(o.TraceLength, o.TraceStride, record)
}

// must unwraps a memo outcome of an infallible driver, re-panicking on error.
func must[V any](v V, err error) V {
	if err != nil {
		panic(err)
	}
	return v
}

// sources returns fresh replay cursors over the whole bank workload.
func (o Options) sources() []trace.Source {
	return o.bank().Sources()
}

// sampleSources returns cursors for every (TraceStride·mul)-th trace of
// the workload — the subsets the lighter studies (Fig 5, MRU, the
// extensions) run on. Only the sampled traces are recorded; they share
// the memo's recordings with the full bank, which holds the same traces.
func (o Options) sampleSources(mul int) []trace.Source {
	o = o.normalized()
	return trace.NewBankFrom(o.TraceLength, o.TraceStride*mul, record).Sources()
}

// runTiming runs sources through cfg with no structure's bias accounted,
// for drivers that read only timing, cache and adder figures.
func runTiming(cfg pipeline.Config, sources []trace.Source) []pipeline.Result {
	return pipeline.RunVariants(cfg, []pipeline.Mitigation{{}}, pipeline.AccountNone, sources, 0)[0]
}

// section prints a titled separator for experiment output.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// WorkloadRow is one suite of the Table 1 inventory.
type WorkloadRow struct {
	Suite       string
	Traces      int
	Description string
}

// Table1Result holds the workload inventory of paper Table 1.
type Table1Result struct {
	Rows  []WorkloadRow
	Total int
}

// Table1 collects the workload inventory (paper Table 1), as generated
// by the synthetic suite profiles.
func Table1() Table1Result {
	var res Table1Result
	for _, s := range trace.Suites() {
		res.Rows = append(res.Rows, WorkloadRow{Suite: s.Name, Traces: s.Count, Description: s.Description})
		res.Total += s.Count
	}
	return res
}

// Render writes Table 1.
func (r Table1Result) Render(w io.Writer) {
	section(w, "Table 1: Workloads")
	fmt.Fprintf(w, "%-14s %8s  %s\n", "suite", "#traces", "description")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %8d  %s\n", row.Suite, row.Traces, row.Description)
	}
	fmt.Fprintf(w, "%-14s %8d\n", "total", r.Total)
}

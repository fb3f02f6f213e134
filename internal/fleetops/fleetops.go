// Package fleetops is the continuous-operations layer over the fleet
// lifetime engine: where internal/service runs one-shot experiment
// jobs, fleetops keeps registered chip populations aging in real time.
// A scheduler advances each population epoch-by-epoch on its own
// interval, persisting its epoch cursor after every tick so a restart
// rebuilds every fleet and replays it to its last published epoch, the
// engine being deterministic; per-epoch aggregates publish to an
// in-process event bus with bounded, drop-and-count subscriber buffers
// (the HTTP layer streams them as SSE and NDJSON with Last-Event-ID
// resume); and threshold rules — plus a duty-deviation detector that
// flags populations whose observed aging trajectory does not match
// their declared workload, the wearout-attack monitor of "Targeted
// Wearout Attacks in Microprocessor Cores" — fire alerts through a
// hardened webhook pipeline (per-sink timeout, retry with backoff and
// jitter, circuit breaker, dead-letter queue).
//
// The package is engineered for failure first: a failing tick retries
// with exponential backoff and quarantines the population after three
// consecutive failures instead of wedging the scheduler; and a
// watchdog cancels ticks that exceed their deadline, after which — as
// after any failed tick — the next tick rebuilds the engine and replays
// it to the cursor. Tests drive these paths through the seams real
// faults arrive by: the Storage and the ConfigBuilder.
package fleetops

import (
	"encoding/json"
	"fmt"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/lifetime"
	"penelope/internal/store"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("30s", "5m") and unmarshals from either a string or nanoseconds, so
// registrations read naturally as JSON.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("fleetops: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// AlertRules are the per-registration alert thresholds. Zero values
// disable a rule, so a registration without an "alerts" object runs
// unmonitored.
type AlertRules struct {
	// P99Guardband fires when the population's P99 guardband crosses
	// this fraction of the cycle time (e.g. 0.08 = 8%).
	P99Guardband float64 `json:"p99_guardband,omitempty"`
	// ViolatedFraction fires when the cumulative fraction of the fleet
	// past the provisioned guardband budget crosses this line.
	ViolatedFraction float64 `json:"violated_fraction,omitempty"`
	// DutyTolerance arms the wearout-attack monitor: each epoch the
	// observed per-structure mean-VTH step is inverted to the stress
	// duty that explains it, and an alert fires when any structure's
	// implied duty deviates from the declared workload's duty by more
	// than this. 0 disables the detector; DefaultDutyTolerance is a
	// reasonable setting.
	DutyTolerance float64 `json:"duty_tolerance,omitempty"`
}

// DefaultDutyTolerance separates process-variation wobble (a few
// percent of implied duty) from a workload substitution: a wearout
// attack pins duty at 1.0 while declared service duties sit well below.
const DefaultDutyTolerance = 0.25

// Enabled reports whether any rule is armed.
func (r AlertRules) Enabled() bool {
	return r.P99Guardband > 0 || r.ViolatedFraction > 0 || r.DutyTolerance > 0
}

// Registration declares one continuously-aged fleet population. It is
// what the scheduler persists (with the fleet's cursor) and resumes.
type Registration struct {
	// Name identifies the population; it doubles as the name of its
	// store records, so it must satisfy store.ValidName: short
	// lowercase alphanumerics with interior dashes.
	Name string `json:"name"`
	// Fleet selects the schedule to age under: "penelope" (default,
	// mitigations on) or "baseline".
	Fleet string `json:"fleet,omitempty"`
	// Options parameterize the fleet exactly as the lifetime experiment
	// does: population size, years, epoch length, variation sigma,
	// attack phase, seed, and the trace workload the duty profile is
	// measured from.
	Options experiments.Options `json:"options"`
	// Interval is the spacing between epoch ticks; 0 uses the
	// scheduler's default.
	Interval Duration `json:"interval,omitempty"`
	// Cooldown is the minimum spacing between tick starts, a guard
	// against a slow tick immediately re-triggering; 0 means none
	// beyond Interval.
	Cooldown Duration `json:"cooldown,omitempty"`
	// EpochsPerTick advances more than one epoch per tick (default 1).
	EpochsPerTick int `json:"epochs_per_tick,omitempty"`
	// Alerts are the population's alert thresholds.
	Alerts AlertRules `json:"alerts,omitempty"`
}

// Validate reports the first shape problem with a registration,
// including options past the experiment request limits. Engine
// construction is deliberately not attempted here — it is expensive and
// fallible, and belongs inside the self-healing tick path.
func (r Registration) Validate() error {
	switch {
	case !store.ValidName(r.Name):
		return fmt.Errorf("fleetops: invalid fleet name %q (want lowercase alphanumerics and interior dashes, 1-64 chars)", r.Name)
	case r.Fleet != "" && r.Fleet != "penelope" && r.Fleet != "baseline":
		return fmt.Errorf("fleetops: unknown fleet %q (want penelope or baseline)", r.Fleet)
	case r.EpochsPerTick < 0:
		return fmt.Errorf("fleetops: negative epochs_per_tick")
	case r.Interval < 0 || r.Cooldown < 0:
		return fmt.Errorf("fleetops: negative interval or cooldown")
	case r.Alerts.P99Guardband < 0 || r.Alerts.ViolatedFraction < 0 || r.Alerts.DutyTolerance < 0:
		return fmt.Errorf("fleetops: negative alert threshold")
	}
	return r.Options.Check()
}

// Penelope reports whether the registration ages under the mitigated
// schedule.
func (r Registration) Penelope() bool { return r.Fleet != "baseline" }

// ConfigBuilder turns a registration into the lifetime engine config it
// ages under. The production builder measures duty profiles from the
// trace workload (ExperimentBuilder); tests substitute cheap synthetic
// configs.
type ConfigBuilder func(Registration) (lifetime.Config, error)

// ExperimentBuilder is the production ConfigBuilder: the exact config
// the lifetime experiment would run for the registration's options —
// measured duty profiles (memoized per workload), the compiled adder's
// delay model, and the attack phases implied by AttackYears.
func ExperimentBuilder(reg Registration) (lifetime.Config, error) {
	if err := reg.Validate(); err != nil {
		return lifetime.Config{}, err
	}
	return experiments.FleetConfig(reg.Options, reg.Penelope()), nil
}

// Storage is the persistence surface the scheduler needs: the store's
// record API, through which fleetops alone writes and reads fleet
// records (store.KindFleet: a JSON Registration plus its epoch cursor).
// ReadRecord and QuarantineRecord serve only Recover's one-time
// migration of legacy engine checkpoints (store.KindFleetCheckpoint).
// *store.Store implements it. Nil storage keeps cursors in memory only —
// a restart then starts every fleet from epoch zero.
type Storage interface {
	PutRecord(k store.Kind, name string, data []byte) error
	ReadRecord(k store.Kind, name string) ([]byte, error)
	Records(k store.Kind, check func(store.Record) error) []store.Record
	QuarantineRecord(k store.Kind, name string, cause error)
	RemoveRecord(k store.Kind, name string)
}

// Package lifetime is the fleet lifetime engine: it ages a population
// of chips — each a set of nbti-modeled structures with per-chip
// process variation — through a multi-year schedule of workload phases
// and reports the guardband trajectory and lifetime yield of the fleet.
//
// The paper's argument is about service life: NBTI guardbands are
// provisioned for years of aging, and Penelope's balancing mechanisms
// pay off as a smaller guardband over that whole period (§1, §4.7).
// The rest of the repository measures instantaneous duty cycles; this
// package integrates them over time. Each simulated chip carries one
// representative worst-stressed PMOS device per microarchitectural
// structure (adder, register files, scheduler), advanced with the exact
// stress/recovery integration of nbti.Device. Per-chip parameters are
// drawn from a deterministic splittable RNG — "Building Reliable
// Arithmetic Multipliers Under NBTI Aging and Process Variations"
// shows aging conclusions flip under per-chip variation, so the fleet
// distribution, not a single nominal chip, is the unit of evaluation.
// Accumulated VTH shift maps to a cycle-time guardband through the
// compiled adder's critical-path delay model (circuit.DelayModel), and
// the engine emits per-epoch fleet aggregates: mean and percentile
// guardband, violation fractions against a provisioned guardband
// budget, and the lifetime-yield curve those violations trace out.
//
// The engine is epoch-major, so a run stops, and a fleet resumes by
// replay, at epoch boundaries: population state is a flat array of trap
// densities plus a violation bitset, serialized with Engine.Snapshot and
// restored bit-exactly with FromSnapshot. Within an epoch the
// population shards across a worker pool in the pipeline.RunBatch
// style; every aggregate is accumulated in fixed-point integers, so
// results are bit-identical for any worker count or scheduling order.
package lifetime

import (
	"fmt"
	"math"

	"penelope/internal/circuit"
	"penelope/internal/mix"
	"penelope/internal/nbti"
)

// Phase is one segment of the service-life schedule: the per-structure
// stress duty cycles the fleet observes for a span of years. A phase's
// duty is the zero-signal probability of the structure's worst-stressed
// PMOS under that workload — measured profiles for normal service, 1.0
// everywhere for an adversarial wearout-attack phase ("Targeted Wearout
// Attacks in Microprocessor Cores" motivates treating that schedule as
// a first-class scenario).
type Phase struct {
	Name  string  `json:"name"`
	Years float64 `json:"years"`
	// Duty holds one stress duty in [0,1] per configured structure.
	Duty []float64 `json:"duty"`
}

// Config parameterizes a fleet simulation. All fields participate in
// the Snapshot header.
type Config struct {
	// Structures names the per-chip aged structures; every phase's Duty
	// slice is indexed by it.
	Structures []string `json:"structures"`
	Phases     []Phase  `json:"phases"`
	Population int      `json:"population"`
	// EpochYears is the aggregation step: duties are integrated exactly
	// within an epoch, and one EpochStats row is emitted per epoch.
	EpochYears float64 `json:"epoch_years"`
	// Seed roots the per-chip parameter sampling. Chip k's parameters
	// depend only on (Seed, Sigma, k), never on worker count or
	// population size, so growing the fleet extends it deterministically.
	Seed uint64 `json:"seed"`
	// Sigma is the lognormal process-variation spread applied to each
	// chip's KStress, KRelax and VTH sensitivity. 0 disables variation.
	Sigma float64 `json:"sigma"`
	// Limit is the provisioned guardband budget: a chip whose required
	// guardband exceeds it is in violation, and the fraction of the
	// fleet not yet in violation is the lifetime yield.
	Limit float64 `json:"limit"`
	// Params is the NBTI calibration on the schedule's timescale (see
	// DefaultParams for the service-life scaling).
	Params nbti.Params `json:"params"`
	// Delay maps accumulated relative VTH shift to required guardband.
	Delay circuit.DelayModel `json:"delay"`
}

// DefaultParams returns the nbti calibration rescaled to a service-life
// timescale: KStress and KRelax shrink by a common factor so a
// DC-stressed device reaches ~99% of its equilibrium trap density after
// seven years (1-exp(-0.66·7) ≈ 0.99) instead of within a few time
// units. The KRelax/KStress ratio — and with it every duty-cycle
// equilibrium and guardband anchor — is unchanged.
func DefaultParams() nbti.Params {
	p := nbti.DefaultParams()
	const perYear = 0.66
	p.KStress *= perYear
	p.KRelax *= perYear
	return p
}

// DefaultLimit is the default provisioned guardband budget: half the
// worst-case end-of-life guardband, i.e. the budget a designer would
// dare only with mitigation in place (the paper's point: Penelope makes
// the smaller provision safe, the baseline fleet burns through it).
const DefaultLimit = 0.10

// Validate reports the first problem with the config.
func (c Config) Validate() error {
	switch {
	case len(c.Structures) == 0:
		return fmt.Errorf("lifetime: no structures")
	case len(c.Phases) == 0:
		return fmt.Errorf("lifetime: no phases")
	case c.Population < 1:
		return fmt.Errorf("lifetime: population %d < 1", c.Population)
	case c.EpochYears <= 0:
		return fmt.Errorf("lifetime: epoch length %g <= 0", c.EpochYears)
	case c.Sigma < 0:
		return fmt.Errorf("lifetime: negative variation sigma")
	case c.Limit <= 0:
		return fmt.Errorf("lifetime: guardband limit %g <= 0", c.Limit)
	case !c.Params.Valid():
		return fmt.Errorf("lifetime: invalid nbti params")
	case !c.Delay.Valid():
		return fmt.Errorf("lifetime: invalid delay model")
	}
	for _, ph := range c.Phases {
		if ph.Years <= 0 {
			return fmt.Errorf("lifetime: phase %q spans %g years", ph.Name, ph.Years)
		}
		if len(ph.Duty) != len(c.Structures) {
			return fmt.Errorf("lifetime: phase %q has %d duties for %d structures",
				ph.Name, len(ph.Duty), len(c.Structures))
		}
		for s, d := range ph.Duty {
			if d < 0 || d > 1 || math.IsNaN(d) {
				return fmt.Errorf("lifetime: phase %q duty[%s] = %g out of [0,1]",
					ph.Name, c.Structures[s], d)
			}
		}
	}
	if epochs := ScheduleEpochs(c.Phases, c.EpochYears); !(epochs <= MaxEpochs) {
		return fmt.Errorf("lifetime: schedule of %g epochs exceeds the %d-epoch bound", epochs, MaxEpochs)
	}
	return nil
}

// ScheduleEpochs counts the epochs New lays phases out in: each phase
// rounds to whole epochs of epochYears, at least one. The count is a
// float, taken before any int conversion, so an absurd schedule
// overflows into a refusal instead of wrapping.
func ScheduleEpochs(phases []Phase, epochYears float64) float64 {
	epochs := 0.0
	for _, ph := range phases {
		epochs += math.Max(1, math.Round(ph.Years/epochYears))
	}
	return epochs
}

// MaxEpochs bounds a schedule's length: 2,870 years of daily epochs
// (the README's million-chip run needs 85). New sizes per-epoch tables
// from it, so it also caps what a corrupt checkpoint header allocates.
const MaxEpochs = 1 << 20

// chipStream is the per-chip RNG: a SplitMix64 counter stream rooted at
// a mix of the fleet seed and the chip index, so chip streams are
// independent and reproducible with no shared generator state.
type chipStream struct{ state uint64 }

func newChipStream(seed uint64, chip int) chipStream {
	return chipStream{state: mix.SplitMix64(seed ^ mix.SplitMix64(uint64(chip)+0x632BE59BD9B4E019))}
}

// next returns the next raw 64-bit draw.
func (s *chipStream) next() uint64 {
	s.state = mix.SplitMix64(s.state)
	return s.state
}

// uniform returns a draw in the open interval (0,1).
func (s *chipStream) uniform() float64 {
	return (float64(s.next()>>11) + 0.5) / (1 << 53)
}

// gauss returns one standard-normal pair via Box-Muller.
func (s *chipStream) gauss() (float64, float64) {
	u1, u2 := s.uniform(), s.uniform()
	r := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	return r * cos, r * sin
}

// chipParams samples chip k's process-variation multipliers: lognormal
// factors on KStress, KRelax and the VTH→delay sensitivity (the Vth0
// spread), all with the same sigma. Lognormal keeps every rate positive
// and centers the fleet median on the nominal chip.
func chipParams(seed uint64, sigma float64, chip int) (kStress, kRelax, vthMult float64) {
	if sigma == 0 {
		return 1, 1, 1
	}
	rng := newChipStream(seed, chip)
	g0, g1 := rng.gauss()
	g2, _ := rng.gauss()
	return math.Exp(sigma * g0), math.Exp(sigma * g1), math.Exp(sigma * g2)
}

package experiments

import (
	"fmt"
	"strings"
)

// ExperimentSpec is one registry entry: a stable id, a one-line
// description, and the driver that regenerates the experiment under a
// set of Options. The registry is the single source of truth for what
// experiments exist — cmd/penelope derives its flag help and "all"
// sweep from it, and the experiment service validates and dispatches
// jobs through it.
type ExperimentSpec struct {
	ID          string
	Description string
	// OptionsFree marks drivers whose result does not depend on Options
	// (static tables, device-model and gate-level studies). The service
	// canonicalizes their requests to the defaults so every spelling of
	// such an experiment shares one cache entry and one simulation.
	OptionsFree bool
	// Fleet marks drivers that consume the fleet lifetime knobs. For
	// every other experiment those knobs are irrelevant, and
	// CanonicalOptions resets them so fleet-axis sweeps never re-run an
	// identical trace-only simulation under a different key.
	Fleet bool
	Run   func(Options) Result
}

// CanonicalOptions reduces o to the fields the experiment actually
// consumes: options-free drivers collapse to the defaults, and
// non-fleet drivers drop the fleet knobs. Requests that would run the
// same simulation therefore share one cache key.
func (s ExperimentSpec) CanonicalOptions(o Options) Options {
	o = o.Normalized()
	if s.OptionsFree {
		return DefaultOptions()
	}
	if !s.Fleet {
		def := DefaultOptions()
		o.Population, o.Years, o.EpochDays = def.Population, def.Years, def.EpochDays
		o.VariationSigma, o.AttackYears, o.FleetSeed = def.VariationSigma, def.AttackYears, def.FleetSeed
	}
	return o
}

// registry lists every experiment in report order: the order
// `penelope run -experiment all` renders, which follows the paper's
// evaluation (§4) and then the extensions.
var registry = []ExperimentSpec{
	{ID: "table1", OptionsFree: true, Description: "workload inventory (paper Table 1)",
		Run: func(Options) Result { return Table1() }},
	{ID: "table2", OptionsFree: true, Description: "scheduler field layout (paper Table 2)",
		Run: func(Options) Result { return Table2() }},
	{ID: "fig1", OptionsFree: true, Description: "NIT stress/relax dynamics and duty-cycle equilibria (paper Figure 1)",
		Run: func(Options) Result { return Fig1() }},
	{ID: "fig4", OptionsFree: true, Description: "synthetic adder input pair sweep (paper Figure 4)",
		Run: func(Options) Result { return Fig4() }},
	{ID: "fig5", Description: "adder utilization and NBTI guardband scenarios (paper Figure 5, §4.3)",
		Run: func(o Options) Result { return Fig5(o) }},
	{ID: "fig6", Description: "register file bit bias, baseline vs ISV (paper Figure 6)",
		Run: func(o Options) Result { return Fig6(o) }},
	{ID: "fig8", Description: "scheduler bit bias and field plan (paper Figure 8, §4.5)",
		Run: func(o Options) Result { return Fig8(o) }},
	{ID: "mru", Description: "DL0 hit position distribution (§3.2.1)",
		Run: func(o Options) Result { return MRUStudy(o) }},
	{ID: "table3", Description: "cache inversion scheme performance loss (paper Table 3)",
		Run: func(o Options) Result { return Table3(o) }},
	{ID: "efficiency", Description: "NBTIefficiency summary, measured and paper inputs (§4.2, §4.7)",
		Run: func(o Options) Result { return EfficiencyStudy(o) }},
	{ID: "bpred", Description: "extension: branch predictor rotating inversion (§3.2.1)",
		Run: func(o Options) Result { return Bpred(o) }},
	{ID: "latch", Description: "extension: adder input latch aging (§3.3)",
		Run: func(o Options) Result { return Latch(o) }},
	{ID: "vmin", Description: "extension: Vmin and energy benefit of balanced cells (§1, §5)",
		Run: func(o Options) Result { return Vmin(Fig6(o), Fig8(o)) }},
	{ID: "lifetime", Fleet: true, Description: "fleet lifetime: multi-year guardband trajectory under process variation, baseline vs Penelope",
		Run: func(o Options) Result { return Lifetime(o) }},
	{ID: "yield", Fleet: true, Description: "fleet lifetime-yield curve at the provisioned guardband budget",
		Run: func(o Options) Result { return Yield(Lifetime(o)) }},
}

// Experiments returns the registry in report order. The slice is
// shared; callers must not modify it.
func Experiments() []ExperimentSpec { return registry }

// Lookup returns the registry entry for id.
func Lookup(id string) (ExperimentSpec, bool) {
	for _, spec := range registry {
		if spec.ID == id {
			return spec, true
		}
	}
	return ExperimentSpec{}, false
}

// Run executes the experiment with the given id.
func Run(id string, o Options) (Result, error) {
	spec, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, IDList())
	}
	return spec.Run(o), nil
}

// IDs returns every experiment id in report order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, spec := range registry {
		ids[i] = spec.ID
	}
	return ids
}

// IDList renders the ids as a "|"-separated list for usage strings.
func IDList() string { return strings.Join(IDs(), "|") }

package lifetime

import (
	"bytes"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"penelope/internal/circuit"
)

// refFleet is a plain reference model of the engine's epoch step: the
// coefficients rebuilt from the config every epoch, one Guardband call
// per device with the chip's guardband the max of them, a fresh
// accumulator per shard, and every shard stepped serially in order.
// It shares only the stats row layout and percentile with the engine.
type refFleet struct {
	cfg      Config
	epoch    int
	nit      []float64
	violated []uint64
	stats    []EpochStats

	// shiftClamps and denClamps count the device steps that hit each of
	// Guardband's clamps, and worstBy counts chip steps by the structure
	// that set the chip's guardband, so a test can show it exercised
	// each case.
	shiftClamps, denClamps int
	worstBy                []int
}

func newRefFleet(cfg Config) *refFleet {
	pop, S := cfg.Population, len(cfg.Structures)
	return &refFleet{cfg: cfg, nit: make([]float64, pop*S), violated: make([]uint64, (pop+63)/64),
		worstBy: make([]int, S)}
}

// phaseAt returns the phase index of epoch k, counting epochs per
// phase exactly as New does.
func (r *refFleet) phaseAt(k int) int {
	for pi, ph := range r.cfg.Phases {
		n := max(1, int(math.Round(ph.Years/r.cfg.EpochYears)))
		if k < n {
			return pi
		}
		k -= n
	}
	panic("reference stepped past the schedule")
}

func (r *refFleet) step() EpochStats {
	cfg := r.cfg
	pop, S := cfg.Population, len(cfg.Structures)
	pi := r.phaseAt(r.epoch)
	ph := cfg.Phases[pi]
	var aggs []*shardAgg
	for lo := 0; lo < pop; lo += shardSize {
		agg := &shardAgg{sumVTH: make([]uint64, S)}
		aggs = append(aggs, agg)
		for c := lo; c < min(lo+shardSize, pop); c++ {
			ks, kr, vm := chipParams(cfg.Seed, cfg.Sigma, c)
			kStress, kRelax := cfg.Params.KStress*ks, cfg.Params.KRelax*kr
			vscale := cfg.Params.MaxVTHShift / cfg.Params.N0 * vm
			worst, worstS := 0.0, -1
			for s := 0; s < S; s++ {
				d := ph.Duty[s]
				create := d * kStress
				lambda := create + (1-d)*kRelax
				m, k := 1.0, 0.0
				if lambda != 0 {
					m = math.Exp(-lambda * cfg.EpochYears)
					k = cfg.Params.N0 * create / lambda * (1 - m)
				}
				i := c*S + s
				r.nit[i] = r.nit[i]*m + k
				shift := r.nit[i] * vscale
				agg.sumVTH[s] += uint64(shift*qScale + 0.5)
				if shift > 2*cfg.Delay.MaxShift {
					r.shiftClamps++
				}
				if shift > 0 && 1-cfg.Delay.Sensitivity*min(shift, 2*cfg.Delay.MaxShift) < 0.1 {
					r.denClamps++
				}
				if g := cfg.Delay.Guardband(shift); g > worst {
					worst, worstS = g, s
				}
			}
			if worstS >= 0 {
				r.worstBy[worstS]++
			}
			q := uint64(worst*qScale + 0.5)
			agg.sumG += q
			agg.maxG = max(agg.maxG, q)
			agg.hist[min(int(worst*histBins/histMax), histBins-1)]++
			if worst > cfg.Limit {
				r.violated[c/64] |= 1 << (c % 64)
			}
		}
	}
	total := &shardAgg{sumVTH: make([]uint64, S)}
	for _, a := range aggs {
		total.sumG += a.sumG
		total.maxG = max(total.maxG, a.maxG)
		for b := range total.hist {
			total.hist[b] += a.hist[b]
		}
		for s := range total.sumVTH {
			total.sumVTH[s] += a.sumVTH[s]
		}
	}
	violated := 0
	for _, w := range r.violated {
		violated += bits.OnesCount64(w)
	}
	n := uint64(pop)
	st := EpochStats{
		Epoch:            r.epoch,
		Years:            float64(r.epoch+1) * cfg.EpochYears,
		Phase:            ph.Name,
		MeanGuardband:    float64(total.sumG) / qScale / float64(pop),
		P50Guardband:     percentile(&total.hist, n, 0.50),
		P95Guardband:     percentile(&total.hist, n, 0.95),
		P99Guardband:     percentile(&total.hist, n, 0.99),
		MaxGuardband:     float64(total.maxG) / qScale,
		ViolatedFraction: float64(violated) / float64(pop),
		MeanVTHShift:     make([]float64, S),
	}
	for s := range st.MeanVTHShift {
		st.MeanVTHShift[s] = float64(total.sumVTH[s]) / qScale / float64(pop)
	}
	r.stats = append(r.stats, st)
	r.epoch++
	return st
}

// snapshot serializes the reference state through the engine's own
// checkpoint encoder, so the comparison covers every persisted byte.
func (r *refFleet) snapshot(t *testing.T) []byte {
	t.Helper()
	e := mustNew(t, r.cfg)
	copy(e.nit, r.nit)
	copy(e.violated, r.violated)
	e.epoch, e.stats = r.epoch, r.stats
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// refConfig is testConfig with three structures whose duty order flips
// after the attack phase, so the structure that sets a chip's guardband
// changes mid-life, at a different epoch for each varied chip.
func refConfig(pop int, sigma float64) Config {
	cfg := testConfig(pop, sigma)
	cfg.Structures = []string{"adder", "regfile", "scheduler"}
	cfg.Phases = []Phase{
		{Name: "service", Years: 2, Duty: []float64{0.9, 0.7, 0.5}},
		{Name: "attack", Years: 1, Duty: []float64{1, 1, 1}},
		{Name: "service", Years: 2, Duty: []float64{0.4, 0.95, 0.8}},
	}
	return cfg
}

// TestStepMatchesReference checks the engine's step — one Guardband
// call per chip, engine-owned accumulators, the inline single shard and
// the worker pool — against refFleet: every stats row deep-equal and
// the final trap densities, violation bitset and stats byte-identical
// through Snapshot. Populations straddle the 64-chip bitset words and
// the 4096-chip shards; the schedule includes an attack phase and
// hands the worst structure from one device to another; the last
// sigma, on a delay model with a small susceptible fraction, drives
// devices past both Guardband clamps.
func TestStepMatchesReference(t *testing.T) {
	clampDelay := func(c *Config) {
		p := c.Params
		c.Delay = circuit.NewDelayModel(circuit.PathStats{Depth: 100, Narrow: 1}, p.MaxVTHShift, p.MaxGuardband)
		c.Limit = 0.05 // the clamped model tops out at 9% guardband
	}
	cases := []struct {
		name   string
		sigma  float64
		mutate func(*Config)
	}{
		{"nominal", 0, nil},
		{"varied", 0.08, nil},
		{"clamped", 1.0, clampDelay},
	}
	for _, tc := range cases {
		for _, pop := range []int{1, 63, 64, 65, 500, 4096, 4097, 9000} {
			cfg := refConfig(pop, tc.sigma)
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			ref := newRefFleet(cfg)
			for range mustNew(t, cfg).TotalEpochs() {
				ref.step()
			}
			want := ref.snapshot(t)
			if tc.name == "clamped" && pop >= 500 && (ref.shiftClamps == 0 || ref.denClamps == 0) {
				t.Fatalf("%s pop %d: clamps hit shift %d, den %d times; want both", tc.name, pop, ref.shiftClamps, ref.denClamps)
			}
			if pop >= 500 && ref.stats[len(ref.stats)-1].ViolatedFraction == 0 {
				t.Fatalf("%s pop %d: no chip violated; the bitset goes unchecked", tc.name, pop)
			}
			if ref.worstBy[0] == 0 || ref.worstBy[1] == 0 {
				t.Fatalf("%s pop %d: worst structure never changed (%v)", tc.name, pop, ref.worstBy)
			}
			for _, workers := range []int{1, 2, 3} {
				e := mustNew(t, cfg)
				for i := range ref.stats {
					if got := e.Step(workers); !reflect.DeepEqual(got, ref.stats[i]) {
						t.Fatalf("%s pop %d workers %d epoch %d:\n got %+v\nwant %+v",
							tc.name, pop, workers, i, got, ref.stats[i])
					}
				}
				got, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s pop %d workers %d: final state differs from the reference", tc.name, pop, workers)
				}
			}
		}
	}
}

// TestStepAllocs pins the cost of a warm single-shard step: the engine
// reuses its accumulators and steps inline, so the only allocation is
// the returned row's MeanVTHShift slice.
func TestStepAllocs(t *testing.T) {
	cfg := testConfig(shardSize, 0.08)
	cfg.Phases = []Phase{{Name: "service", Years: 1000, Duty: []float64{0.9, 0.7}}}
	e := mustNew(t, cfg)
	e.Step(0)
	// Room for every row, so append never grows inside the measurement.
	e.stats = append(make([]EpochStats, 0, e.TotalEpochs()), e.stats...)
	if got := testing.AllocsPerRun(100, func() { e.Step(0) }); got != 1 {
		t.Errorf("warm single-shard Step allocates %v times, want 1 (its stats row)", got)
	}
}

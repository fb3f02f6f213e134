package lifetime

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Aggregation constants. Every per-epoch statistic is accumulated in
// fixed-point integers so the merge across shards is a commutative,
// associative sum — bit-identical for any worker count, scheduling
// order, or checkpoint split.
const (
	// qScale quantizes guardbands and VTH shifts to nano-units.
	// Guardbands stay below histMax (a full cycle time; the clamped
	// delay model tops out near 0.52 even under extreme variation), so
	// a uint64 sum is exact up to ~1.8e10 chips — far beyond any fleet
	// this runs.
	qScale = 1e9
	// histBins buckets the guardband histogram over [0, histMax): the
	// percentile resolution is histMax/histBins ≈ 0.1% guardband.
	histBins = 1024
	histMax  = 1.0
	// shardSize chips form one unit of parallel work. It is a multiple
	// of 64 so shards never share a violation-bitset word, and it is
	// fixed — never derived from the worker count — so the shard
	// decomposition itself is deterministic.
	shardSize = 4096
)

// EpochStats is one row of the fleet trajectory: the guardband
// distribution and violation state of the whole population at the end
// of an epoch.
type EpochStats struct {
	Epoch int     `json:"epoch"`
	Years float64 `json:"years"` // end-of-epoch service time
	Phase string  `json:"phase"`

	MeanGuardband float64 `json:"mean_guardband"`
	P50Guardband  float64 `json:"p50_guardband"`
	P95Guardband  float64 `json:"p95_guardband"`
	P99Guardband  float64 `json:"p99_guardband"`
	MaxGuardband  float64 `json:"max_guardband"`

	// ViolatedFraction is the cumulative fraction of the fleet whose
	// guardband has ever exceeded the provisioned limit; 1 minus it is
	// the lifetime yield at this epoch.
	ViolatedFraction float64 `json:"violated_fraction"`

	// MeanVTHShift is the fleet-mean relative VTH shift per structure,
	// in Config.Structures order.
	MeanVTHShift []float64 `json:"mean_vth_shift"`
}

// Engine advances a fleet through its schedule epoch by epoch. It is
// not safe for concurrent use; Step itself fans out internally.
type Engine struct {
	cfg        Config
	epochTotal int
	phaseOf    []int16 // epoch -> phase index

	// Per-chip sampled parameters, recomputed deterministically from
	// (Seed, Sigma) — never serialized.
	kStress, kRelax, vthScale []float64 // vthScale folds MaxVTHShift/N0 and the chip's Vth0 spread

	// Population state: trap density per chip per structure (chip-major)
	// and the first-violation bitset. This plus the accumulated stats is
	// the whole checkpoint payload.
	epoch    int
	nit      []float64
	violated []uint64
	stats    []EpochStats

	// Current-phase affine step coefficients. Within an epoch a real
	// workload interleaves stress and recovery at cycle granularity —
	// far below the epoch length — so the engine integrates the
	// duty-averaged reaction-diffusion dynamics
	//
	//	dN/dt = d·KStress·(N0-N) - (1-d)·KRelax·N
	//
	// which is exact for infinitesimal interleaving and solves in closed
	// form to nit' = m·nit + c with λ = d·KStress + (1-d)·KRelax,
	// m = exp(-λ·dt) and c = Neq·(1-m) for Neq = N0·d·KStress/λ. The
	// fixed point Neq equals nbti.Params.EquilibriumTraps(d) exactly
	// (guarded by TestEquilibriumConvergence). Rebuilt on phase entry,
	// so steady phases cost one multiply-add per device per epoch.
	coefPhase int
	coefM     []float64
	coefC     []float64

	// aggs holds one accumulator per worker, owned by the engine and
	// rewound by forEachShard, so a warm Step allocates nothing but its
	// own stats row. The epoch's merge total is aggs[0].
	aggs []shardAgg
}

// maxStatsRoom caps the stats rows New reserves: a 7-year schedule of
// 30-day epochs is 85 rows, and 1024 rows cost ~100 KB.
const maxStatsRoom = 1024

// New builds a fleet engine at epoch zero. Chip parameters are sampled
// here; the population starts unstressed.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, coefPhase: -1}
	for pi, ph := range cfg.Phases {
		n := int(math.Round(ph.Years / cfg.EpochYears))
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			e.phaseOf = append(e.phaseOf, int16(pi))
		}
	}
	e.epochTotal = len(e.phaseOf)
	// Room for a job-length schedule's rows up front, so stepping does
	// not regrow the slice; a long-lived fleet grows past it as it ages.
	e.stats = make([]EpochStats, 0, min(e.epochTotal, maxStatsRoom))
	pop, S := cfg.Population, len(cfg.Structures)
	e.nit = make([]float64, pop*S)
	e.violated = make([]uint64, (pop+63)/64)
	e.kStress = make([]float64, pop)
	e.kRelax = make([]float64, pop)
	e.vthScale = make([]float64, pop)
	base := cfg.Params.MaxVTHShift / cfg.Params.N0
	for c := 0; c < pop; c++ {
		ks, kr, vm := chipParams(cfg.Seed, cfg.Sigma, c)
		e.kStress[c] = cfg.Params.KStress * ks
		e.kRelax[c] = cfg.Params.KRelax * kr
		e.vthScale[c] = base * vm
	}
	e.coefM = make([]float64, pop*S)
	e.coefC = make([]float64, pop*S)
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Epoch returns the next epoch to simulate (== completed epochs).
func (e *Engine) Epoch() int { return e.epoch }

// TotalEpochs returns the schedule length in epochs.
func (e *Engine) TotalEpochs() int { return e.epochTotal }

// Done reports whether the schedule has been fully simulated.
func (e *Engine) Done() bool { return e.epoch >= e.epochTotal }

// Stats returns the per-epoch fleet aggregates accumulated so far. The
// slice is owned by the engine; callers must not modify it.
func (e *Engine) Stats() []EpochStats { return e.stats }

// shardAgg is one worker's integer accumulator for an epoch.
type shardAgg struct {
	sumG   uint64
	maxG   uint64
	hist   [histBins]uint64
	sumVTH []uint64
}

// rewind zeroes the accumulator for a new epoch.
func (a *shardAgg) rewind() {
	a.sumG, a.maxG = 0, 0
	clear(a.hist[:])
	clear(a.sumVTH)
}

// merge adds b's sums into a and keeps the larger maximum: plain
// integer arithmetic, so the merge order is irrelevant.
func (a *shardAgg) merge(b *shardAgg) {
	a.sumG += b.sumG
	a.maxG = max(a.maxG, b.maxG)
	for i := range a.hist {
		a.hist[i] += b.hist[i]
	}
	for s := range a.sumVTH {
		a.sumVTH[s] += b.sumVTH[s]
	}
}

// buildCoefs precomputes the affine per-epoch step for phase pi across
// the population, sharded over the workers.
func (e *Engine) buildCoefs(pi, workers int) {
	e.coefPhase = pi
	e.forEachShard(workers, (*Engine).coefShard)
}

// coefShard fills the current phase's step coefficients for chips
// [lo, hi).
func (e *Engine) coefShard(lo, hi int, _ *shardAgg) {
	ph := e.cfg.Phases[e.coefPhase]
	S := len(e.cfg.Structures)
	dt := e.cfg.EpochYears
	n0 := e.cfg.Params.N0
	for c := lo; c < hi; c++ {
		ks, kr := e.kStress[c], e.kRelax[c]
		for s := 0; s < S; s++ {
			d := ph.Duty[s]
			create := d * ks
			lambda := create + (1-d)*kr
			i := c*S + s
			if lambda == 0 {
				e.coefM[i], e.coefC[i] = 1, 0
				continue
			}
			m := math.Exp(-lambda * dt)
			e.coefM[i] = m
			e.coefC[i] = n0 * create / lambda * (1 - m)
		}
	}
}

// forEachShard runs kernel over fixed-size population shards on up to
// workers workers (<= 0 uses GOMAXPROCS) and returns their rewound-then-
// filled accumulators. Shards are disjoint chip ranges, so kernel may
// write per-chip state freely. The caller is worker 0; a fleet of one
// shard, or a single worker, never leaves the calling goroutine.
func (e *Engine) forEachShard(workers int, kernel func(e *Engine, lo, hi int, agg *shardAgg)) []shardAgg {
	pop := e.cfg.Population
	shards := (pop + shardSize - 1) / shardSize
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, shards)
	for len(e.aggs) < workers {
		e.aggs = append(e.aggs, shardAgg{sumVTH: make([]uint64, len(e.cfg.Structures))})
	}
	aggs := e.aggs[:workers]
	for i := range aggs {
		aggs[i].rewind()
	}
	if workers == 1 {
		for lo := 0; lo < pop; lo += shardSize {
			kernel(e, lo, min(lo+shardSize, pop), &aggs[0])
		}
		return aggs
	}
	var next atomic.Int64
	work := func(agg *shardAgg) {
		for {
			lo := int(next.Add(1)-1) * shardSize
			if lo >= pop {
				return
			}
			kernel(e, lo, min(lo+shardSize, pop), agg)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(&aggs[w])
		}()
	}
	work(&aggs[0])
	wg.Wait()
	return aggs
}

// stepShard advances chips [lo, hi) one epoch under the current
// coefficients and accumulates their statistics into agg.
//
// A chip's guardband is that of its worst structure. DelayModel.Guardband
// is non-decreasing in floating point (a clamp, a product with a
// non-negative sensitivity, 1-x, a floor, then S/den - S), so the
// guardband of the largest shift is exactly the largest guardband, and
// one call per chip replaces one per structure. A NaN shift loses every
// comparison, so it is ignored here as it was by the max of guardbands.
func (e *Engine) stepShard(lo, hi int, agg *shardAgg) {
	const binScale = histBins / histMax
	S := len(e.cfg.Structures)
	limit := e.cfg.Limit
	delay := e.cfg.Delay
	nit := e.nit[lo*S : hi*S]
	coefM := e.coefM[lo*S : hi*S]
	coefC := e.coefC[lo*S : hi*S]
	vthScale := e.vthScale[lo:hi]
	sumVTH := agg.sumVTH[:S]
	sumG, maxG := agg.sumG, agg.maxG
	i := 0
	for c, vscale := range vthScale {
		worst := 0.0
		for s := range sumVTH {
			v := nit[i]*coefM[i] + coefC[i]
			nit[i] = v
			i++
			shift := v * vscale
			sumVTH[s] += uint64(shift*qScale + 0.5)
			if shift > worst {
				worst = shift
			}
		}
		g := delay.Guardband(worst)
		// g lies in [0, 9] (Susceptible <= 1, den >= 0.1), so the int64
		// conversion is exact and cheaper than the uint64 one.
		q := uint64(int64(g*qScale + 0.5))
		sumG += q
		maxG = max(maxG, q)
		agg.hist[min(int(g*binScale), histBins-1)]++
		if g > limit {
			chip := lo + c
			e.violated[chip>>6] |= 1 << uint(chip&63)
		}
	}
	agg.sumG, agg.maxG = sumG, maxG
}

// Step simulates one epoch across the whole fleet and appends its
// aggregate row. workers <= 0 uses GOMAXPROCS; the result is
// bit-identical for any worker count.
func (e *Engine) Step(workers int) EpochStats {
	if e.Done() {
		panic("lifetime: Step past the end of the schedule")
	}
	pi := int(e.phaseOf[e.epoch])
	if pi != e.coefPhase {
		e.buildCoefs(pi, workers)
	}
	aggs := e.forEachShard(workers, (*Engine).stepShard)
	total := &aggs[0]
	for i := 1; i < len(aggs); i++ {
		total.merge(&aggs[i])
	}

	pop := uint64(e.cfg.Population)
	violated := uint64(0)
	for _, w := range e.violated {
		violated += uint64(bits.OnesCount64(w))
	}
	st := EpochStats{
		Epoch:            e.epoch,
		Years:            float64(e.epoch+1) * e.cfg.EpochYears,
		Phase:            e.cfg.Phases[pi].Name,
		MeanGuardband:    float64(total.sumG) / qScale / float64(pop),
		P50Guardband:     percentile(&total.hist, pop, 0.50),
		P95Guardband:     percentile(&total.hist, pop, 0.95),
		P99Guardband:     percentile(&total.hist, pop, 0.99),
		MaxGuardband:     float64(total.maxG) / qScale,
		ViolatedFraction: float64(violated) / float64(pop),
		MeanVTHShift:     make([]float64, len(total.sumVTH)),
	}
	for s := range st.MeanVTHShift {
		st.MeanVTHShift[s] = float64(total.sumVTH[s]) / qScale / float64(pop)
	}
	e.stats = append(e.stats, st)
	e.epoch++
	return st
}

// percentile returns the upper edge of the histogram bin where the
// cumulative count first reaches p of the population — an approximation
// with histMax/histBins resolution, exact in the aggregate sense that
// at least p of the fleet needs no more than the returned guardband.
func percentile(hist *[histBins]uint64, pop uint64, p float64) float64 {
	target := uint64(math.Ceil(p * float64(pop)))
	if target < 1 {
		target = 1
	}
	cum := uint64(0)
	for b := 0; b < histBins; b++ {
		cum += hist[b]
		if cum >= target {
			return float64(b+1) * (histMax / histBins)
		}
	}
	return histMax
}

// Run simulates every remaining epoch and returns the full stats
// trajectory, including epochs restored from a checkpoint.
func (e *Engine) Run(workers int) []EpochStats {
	for !e.Done() {
		e.Step(workers)
	}
	return e.stats
}

// FirstViolationYears returns the service time at the end of the first
// epoch in which any chip violated the guardband limit, or -1 if the
// fleet (so far) never violated.
func (e *Engine) FirstViolationYears() float64 {
	for _, st := range e.stats {
		if st.ViolatedFraction > 0 {
			return st.Years
		}
	}
	return -1
}

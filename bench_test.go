// Package penelope_test is the benchmark harness of the reproduction:
// one benchmark per paper table/figure (regenerating its data and
// reporting the headline quantity via ReportMetric) plus ablation
// benchmarks for the design choices called out in DESIGN.md §10.
//
// Run with: go test -bench=. -benchmem
package penelope_test

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"penelope/internal/adder"
	"penelope/internal/cache"
	"penelope/internal/circuit"
	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/lifetime"
	"penelope/internal/metric"
	"penelope/internal/nbti"
	"penelope/internal/obs"
	"penelope/internal/obs/tsdb"
	"penelope/internal/pipeline"
	"penelope/internal/trace"
)

// benchOptions keeps per-iteration work bounded.
func benchOptions() experiments.Options {
	return experiments.Options{TraceLength: 5000, TraceStride: 120}
}

// BenchmarkFig1NITDynamics regenerates the Figure 1 stress/relax
// saw-tooth and reports the equilibrium trap density at 50% duty.
func BenchmarkFig1NITDynamics(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1()
		last = r.Equilibrium(0.5)
	}
	b.ReportMetric(last, "NIT50/N0")
}

// BenchmarkFig4InputPairs sweeps the 28 synthetic input pairs on the
// Ladner-Fischer adder and reports the best pair's stressed fraction.
func BenchmarkFig4InputPairs(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4()
		best = r.Best.NarrowFullyStressed
	}
	b.ReportMetric(best*100, "best-narrow100%")
}

// BenchmarkFig5AdderGuardband ages the adder at 21% utilization with
// pair 1+8 idle injection and reports the guardband (paper: 5.8%). The
// trace is recorded once and every iteration reads it from a fresh
// cursor, so the guardband does not depend on b.N.
func BenchmarkFig5AdderGuardband(b *testing.B) {
	ad := adder.New32()
	params := nbti.DefaultParams()
	rec := trace.Record(trace.SpecINT2000, 0, 4000)
	var gb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := trace.NewOperandStream([]trace.Source{rec.Cursor()})
		res := ad.GuardbandScenario(src, 0.21, 1, 8, 150, params)
		gb = res.Guardband
	}
	b.ReportMetric(gb*100, "guardband%")
}

// BenchmarkFig6RegfileBias runs the register files with ISV off and on
// through one shared timing pass that accounts only the register files,
// the Figure 6 sweep shape, and reports the worst-case integer bias with
// ISV (paper: 48.5%). The trace is recorded once and replayed per
// iteration.
func BenchmarkFig6RegfileBias(b *testing.B) {
	variants := []pipeline.Mitigation{{}, {EnableISV: true}}
	src := []trace.Source{trace.Record(trace.SpecINT2000, 1, 8000).Cursor()}
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pipeline.RunVariants(pipeline.DefaultConfig(), variants, pipeline.AccountRegfiles, src, 1)
		worst = r[1][0].IntRF.WorstBias
	}
	b.ReportMetric(worst*100, "worstbias%")
}

// BenchmarkFig8SchedulerBias builds the field plan and runs the
// protected scheduler, reporting the worst-case bias (paper: 63.2%).
func BenchmarkFig8SchedulerBias(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchOptions())
		worst = r.WorstProtected
	}
	b.ReportMetric(worst*100, "worstbias%")
}

// BenchmarkTable3CacheSchemes evaluates each inversion scheme on the
// 32KB 8-way DL0 and reports its CPI loss (paper Table 3 row 1).
func BenchmarkTable3CacheSchemes(b *testing.B) {
	src := trace.Record(trace.Server, 1, 8000).Cursor()
	base := pipeline.Run(pipeline.DefaultConfig(), src)
	schemes := []struct {
		name string
		opt  cache.Options
	}{
		{"SetFixed50", cache.Options{Scheme: cache.SchemeSetFixed, InvertRatio: 0.5, RotatePeriod: 2_000_000}},
		{"LineFixed50", cache.Options{Scheme: cache.SchemeLineFixed, InvertRatio: 0.5, Seed: 3}},
		{"LineDynamic60", func() cache.Options {
			o := cache.DefaultDynamicOptions(0.6, 0.02, 3)
			o.PeriodCycles = 4000
			o.WarmupCycles = 150
			o.TestCycles = 150
			return o
		}()},
	}
	for _, s := range schemes {
		b.Run(s.name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.DL0Options = s.opt
			var loss float64
			for i := 0; i < b.N; i++ {
				r := pipeline.Run(cfg, src)
				loss = r.CPI/base.CPI - 1
			}
			b.ReportMetric(loss*100, "loss%")
		})
	}
}

// BenchmarkEfficiencyMetric evaluates the §4.7 whole-processor summary
// from the paper's inputs and reports the Penelope NBTIefficiency
// (paper: 1.28).
func BenchmarkEfficiencyMetric(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		r := experiments.Efficiency(experiments.PaperInputs())
		eff = r.Penelope
	}
	b.ReportMetric(eff, "NBTIefficiency")
}

// BenchmarkPipelineThroughput measures raw simulator speed in uops/s
// with the synthesizing generator in the loop (the pre-recording
// baseline shape; compare BenchmarkPipelineReplayThroughput).
func BenchmarkPipelineThroughput(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	tr := trace.NewTrace(trace.Multimedia, 0, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.Run(cfg, tr)
	}
	b.SetBytes(0)
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkPipelineReplayThroughput measures simulator speed in uops/s
// when the trace is replayed from a packed recording: the synthesis cost
// of BenchmarkPipelineThroughput is gone and only the core model is
// timed.
func BenchmarkPipelineReplayThroughput(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	src := trace.Record(trace.Multimedia, 0, 10000).Cursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.Run(cfg, src)
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkCoreReplay measures one reused core replaying a packed
// recording: the BenchmarkPipelineReplayThroughput workload with every
// structure accounted, minus building a core and a Result per run. Each
// run resets the warm core in place, so allocs/op is 0.
func BenchmarkCoreReplay(b *testing.B) {
	c := pipeline.NewCore(pipeline.DefaultConfig(), []pipeline.Mitigation{{}}, pipeline.AccountAll)
	src := trace.Record(trace.Multimedia, 0, 10000).Cursor()
	c.Run(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(src)
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkTraceRecord measures one-time synthesis-and-pack cost: one
// 12000-uop trace recorded per iteration, reported as uops/s.
func BenchmarkTraceRecord(b *testing.B) {
	var rec *trace.Recording
	for i := 0; i < b.N; i++ {
		rec = trace.Record(trace.Multimedia, 1, 12000)
	}
	b.ReportMetric(float64(12000*b.N)/b.Elapsed().Seconds(), "uops/s")
	b.ReportMetric(float64(rec.Bytes())/float64(rec.Len()), "B/uop")
}

// BenchmarkCursorReplay measures the replay fast path: one full pass
// over a recorded 12000-uop stream per iteration, zero allocations.
func BenchmarkCursorReplay(b *testing.B) {
	src := trace.Record(trace.Multimedia, 1, 12000).Cursor()
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		for {
			u, ok := src.NextUop()
			if !ok {
				break
			}
			sink ^= u.DstVal
		}
	}
	_ = sink
	b.ReportMetric(float64(12000*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkRunBatch measures multi-trace scaling through the parallel
// batch runner: the same 8-trace sweep with 1 worker and with one worker
// per core. Aggregate uops/s should scale near-linearly with workers up
// to the trace count (single-core machines report both the same).
func BenchmarkRunBatch(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	traces := trace.NewBank(5000, 70).Sources()
	if len(traces) > 8 {
		traces = traces[:8]
	}
	totalUops := uint64(0)
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range pipeline.RunBatch(cfg, traces, workers) {
					totalUops += r.Uops
				}
			}
			b.ReportMetric(float64(5000*len(traces)*b.N)/b.Elapsed().Seconds(), "uops/s")
		})
	}
	_ = totalUops
}

// fleetBenchConfig builds a lifetime engine config with synthetic duty
// profiles, skipping the workload measurement so only the engine is
// timed.
func fleetBenchConfig(pop int, years float64) lifetime.Config {
	p := lifetime.DefaultParams()
	return lifetime.Config{
		Structures: []string{"adder", "int-regfile", "fp-regfile", "scheduler"},
		Phases: []lifetime.Phase{
			{Name: "service", Years: years, Duty: []float64{0.9, 0.8, 0.95, 1.0}},
		},
		Population: pop,
		EpochYears: 30 / 365.25,
		Seed:       9,
		Sigma:      0.08,
		Limit:      lifetime.DefaultLimit,
		Params:     p,
		Delay:      circuit.NewDelayModel(circuit.PathStats{Depth: 21, Narrow: 18}, p.MaxVTHShift, p.MaxGuardband),
	}
}

// BenchmarkFleetEpoch measures one epoch of a 100k-chip fleet — the
// inner loop of the lifetime engine — reported as chip-epochs/s.
func BenchmarkFleetEpoch(b *testing.B) {
	const pop = 100_000
	cfg := fleetBenchConfig(pop, 1000)
	eng, err := lifetime.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng.Done() {
			b.StopTimer()
			eng, _ = lifetime.New(cfg)
			b.StartTimer()
		}
		eng.Step(0)
	}
	b.ReportMetric(float64(pop*b.N)/b.Elapsed().Seconds(), "chip-epochs/s")
}

// BenchmarkLifetimeTrajectory measures a full 20k-chip, 7-year fleet
// run per iteration and reports the end-of-life mean guardband.
func BenchmarkLifetimeTrajectory(b *testing.B) {
	const pop = 20_000
	cfg := fleetBenchConfig(pop, 7)
	var final float64
	for i := 0; i < b.N; i++ {
		eng, err := lifetime.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		stats := eng.Run(0)
		final = stats[len(stats)-1].MeanGuardband
	}
	b.ReportMetric(final*100, "guardband%")
}

// BenchmarkPayloadMarshal prices rendering one lifetime payload (a
// 500-chip fleet, about 86 KiB indented, the size every fleet-miss job
// ships) as the indented JSON the service stores and serves.
func BenchmarkPayloadMarshal(b *testing.B) {
	o := experiments.Options{TraceLength: 2000, TraceStride: 90, Population: 500}
	res, err := experiments.Run("lifetime", o)
	if err != nil {
		b.Fatal(err)
	}
	p := experiments.NewPayload(res, o)
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out))/1024, "KiB")
}

// BenchmarkBusPublish measures the continuous-operations event bus on
// its hot path — one per-epoch aggregate published to a topic with four
// live (and saturated) subscribers, the fan-out every scheduled fleet
// pays per epoch. Delivery is non-blocking by design, so the cost is
// one JSON marshal plus bounded channel sends.
func BenchmarkBusPublish(b *testing.B) {
	bus := fleetops.NewBus()
	bus.Touch("fleet/bench")
	for i := 0; i < 4; i++ {
		sub, _ := bus.SubscribeExisting("fleet/bench", 0, 8)
		defer sub.Close()
	}
	row := lifetime.EpochStats{Epoch: 1, Years: 0.1, Phase: "service", MeanVTHShift: []float64{0.01, 0.02}}
	ev := fleetops.EpochEvent{Fleet: "bench", EpochStats: row}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bus.Publish("fleet/bench", "epoch", ev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAblationRINVPeriod sweeps the RINV refresh period (DESIGN.md
// §5): sampling too rarely leaves per-bit noise, too often costs
// nothing here but would cost sampling bandwidth in hardware.
func BenchmarkAblationRINVPeriod(b *testing.B) {
	src := trace.Record(trace.SpecINT2000, 2, 8000).Cursor()
	for _, period := range []uint64{64, 256, 1024, 4096} {
		b.Run(benchName("period", int(period)), func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.EnableISV = true
			cfg.RINVPeriod = period
			var worst float64
			for i := 0; i < b.N; i++ {
				r := pipeline.Run(cfg, src)
				worst = r.IntRF.WorstBias
			}
			b.ReportMetric(worst*100, "worstbias%")
		})
	}
}

// BenchmarkAblationGranularity compares inversion granularities
// (set/way/line) at K=50% on the same workload.
func BenchmarkAblationGranularity(b *testing.B) {
	src := trace.Record(trace.Multimedia, 2, 8000).Cursor()
	baseCfg := pipeline.DefaultConfig()
	baseCfg.DL0Bytes = 8 * 1024 // pressured configuration so losses show
	base := pipeline.Run(baseCfg, src)
	for _, g := range []struct {
		name   string
		scheme cache.Scheme
	}{
		{"set", cache.SchemeSetFixed},
		{"way", cache.SchemeWayFixed},
		{"line", cache.SchemeLineFixed},
	} {
		b.Run(g.name, func(b *testing.B) {
			cfg := baseCfg
			cfg.DL0Options = cache.Options{Scheme: g.scheme, InvertRatio: 0.5, RotatePeriod: 2_000_000, Seed: 5}
			var loss float64
			for i := 0; i < b.N; i++ {
				r := pipeline.Run(cfg, src)
				loss = r.CPI/base.CPI - 1
			}
			b.ReportMetric(loss*100, "loss%")
		})
	}
}

// BenchmarkAblationInvertRatio sweeps the fixed invert ratio K for the
// line scheme: higher K balances wear better but costs more capacity.
func BenchmarkAblationInvertRatio(b *testing.B) {
	src := trace.Record(trace.SpecINT2000, 3, 8000).Cursor()
	baseCfg := pipeline.DefaultConfig()
	baseCfg.DL0Bytes = 8 * 1024 // pressured configuration so losses show
	base := pipeline.Run(baseCfg, src)
	for _, k := range []int{30, 40, 50, 60, 70} {
		b.Run(benchName("K", k), func(b *testing.B) {
			cfg := baseCfg
			cfg.DL0Options = cache.Options{Scheme: cache.SchemeLineFixed, InvertRatio: float64(k) / 100, Seed: 5}
			var loss float64
			for i := 0; i < b.N; i++ {
				r := pipeline.Run(cfg, src)
				loss = r.CPI/base.CPI - 1
			}
			b.ReportMetric(loss*100, "loss%")
		})
	}
}

// BenchmarkAblationAdderInputs varies how many synthetic inputs the idle
// injector alternates: one input leaves complementary transistors fully
// stressed; the complementary pair fixes them. Each iteration reseeds
// the operand RNG, so the guardband does not depend on b.N.
func BenchmarkAblationAdderInputs(b *testing.B) {
	ad := adder.New32()
	params := nbti.DefaultParams()
	sets := map[string][]int{
		"1input":  {1},
		"2inputs": {1, 8},
		"4inputs": {1, 4, 5, 8},
		"8inputs": {1, 2, 3, 4, 5, 6, 7, 8},
	}
	rng := rand.New(rand.NewSource(11))
	for _, name := range []string{"1input", "2inputs", "4inputs", "8inputs"} {
		idxs := sets[name]
		b.Run(name, func(b *testing.B) {
			var gb float64
			for i := 0; i < b.N; i++ {
				rng.Seed(11)
				sim := ad.NewStressSim()
				// 21% utilization with random operands packed 64 per
				// bit-parallel pass; the idle round-robin over the input
				// set is constant across samples, so each synthetic input
				// is applied once with its aggregate share. Stress sums
				// are order-independent: same guardband as the scalar
				// per-sample loop.
				const samples = 120
				ops := make([]adder.Operands, 0, 64)
				for s := 0; s < samples; s++ {
					ops = append(ops, adder.Operands{A: uint64(rng.Uint32()), B: uint64(rng.Uint32())})
					if len(ops) == 64 {
						sim.ApplyVec(ad.InputWords(ops), len(ops), 21)
						ops = ops[:0]
					}
				}
				if len(ops) > 0 {
					sim.ApplyVec(ad.InputWords(ops), len(ops), 21)
				}
				share := uint64(79 / len(idxs))
				for _, k := range idxs {
					sim.Apply(ad.SyntheticInput(k), share*samples)
				}
				gb = sim.Analyze(params).Guardband
			}
			b.ReportMetric(gb*100, "guardband%")
		})
	}
}

// BenchmarkAdderEvalBatch measures bit-parallel adder evaluation
// throughput: 4096 operand triples per iteration through EvalBatch (64
// lanes per netlist pass), reported as adds/s.
func BenchmarkAdderEvalBatch(b *testing.B) {
	ad := adder.New32()
	rng := rand.New(rand.NewSource(17))
	ops := make([]adder.Operands, 4096)
	for i := range ops {
		ops[i] = adder.Operands{
			A:   uint64(rng.Uint32()),
			B:   uint64(rng.Uint32()),
			Cin: rng.Intn(2) == 1,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad.EvalBatch(ops)
	}
	b.ReportMetric(float64(len(ops)*b.N)/b.Elapsed().Seconds(), "adds/s")
}

// BenchmarkStressApplyVec measures the compiled stress path: one 64-lane
// ApplyVec (netlist pass + tap-program walk) per iteration, reported as
// lane-applies/s against the scalar Apply equivalent of 64 calls.
func BenchmarkStressApplyVec(b *testing.B) {
	ad := adder.New32()
	sim := ad.NewStressSim()
	rng := rand.New(rand.NewSource(23))
	ops := make([]adder.Operands, 64)
	for i := range ops {
		ops[i] = adder.Operands{A: uint64(rng.Uint32()), B: uint64(rng.Uint32())}
	}
	words := ad.InputWords(ops)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ApplyVec(words, 64, 1)
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "lane-applies/s")
}

// BenchmarkAblationMetricExponent evaluates the §4.2 metric with
// delay exponents 1..3 on the paper's processor inputs, showing how the
// PD³ choice weighs delay against guardband.
func BenchmarkAblationMetricExponent(b *testing.B) {
	for _, exp := range []int{1, 2, 3} {
		b.Run(benchName("exp", exp), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				eff = metric.EfficiencyExp(1.007, 0.074, 1.01, float64(exp))
			}
			b.ReportMetric(eff, "NBTIefficiency")
		})
	}
}

// BenchmarkObsOverhead prices the observability layer's hot-path
// primitives: atomic counter increments, lock-free histogram observes,
// label resolution, one-shot span recording, and — the guarantee the
// fleet engine and cursor replay rely on — the nil-instrument no-op
// path, which must be close to free.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("CounterInc", func(b *testing.B) {
		reg := obs.NewRegistry()
		c := reg.Counter("bench_counter_total", "bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		reg := obs.NewRegistry()
		h := reg.Histogram("bench_seconds", "bench", nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%1000) * 1e-6)
		}
	})
	b.Run("HistogramVecResolved", func(b *testing.B) {
		reg := obs.NewRegistry()
		h := reg.HistogramVec("bench_vec_seconds", "bench", "label", nil).With("hot")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%1000) * 1e-6)
		}
	})
	b.Run("TracerRecord", func(b *testing.B) {
		tr := obs.NewTracer()
		start := time.Now()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Record("bench", "span", start, time.Microsecond, nil)
		}
	})
	b.Run("TracePhases", func(b *testing.B) {
		tr := obs.NewTracer()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := tr.Begin("bench-job", "bench", "admit")
			t.Phase("run")
			t.Phase("done")
			t.Finish()
		}
	})
	b.Run("NilInstruments", func(b *testing.B) {
		var c *obs.Counter
		var h *obs.Histogram
		var t *obs.Trace
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(1e-6)
			t.Phase("noop")
		}
	})
}

// BenchmarkTsdbSample prices one metric-history sampling pass over a
// representative registry (counter, gauge, histogram, two-cell vec) and
// pins the steady-state path at zero allocations — the sampler runs
// forever on a 10s cadence, so any per-tick garbage would accumulate
// for the life of the server. Rings grow until they are full, so the
// warm-up fills every tier first: the 100x tier fills after 200×360
// samples, 360 being the raw ring a history keeps per series.
func BenchmarkTsdbSample(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_events_total", "bench")
	gauge := reg.Gauge("bench_depth", "bench")
	hist := reg.Histogram("bench_seconds", "bench", nil)
	vec := reg.HistogramVec("bench_vec_seconds", "bench", "cell", nil)
	vec.With("a").Observe(0.1)
	vec.With("b").Observe(0.2)

	const rawPoints = 360
	db, err := tsdb.Open(tsdb.Config{Registry: reg, Interval: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	now := time.Now()
	step := func(i int) {
		ctr.Add(3)
		gauge.Set(float64(i % 64))
		hist.Observe(float64(i%100) * 1e-3)
		db.Sample(now.Add(time.Duration(i) * 10 * time.Second))
	}
	// Warm the bindings and fill every tier; one extra 100x window
	// covers a start that is not window-aligned.
	iter := 0
	for ; iter < 200*rawPoints+100; iter++ {
		step(iter)
	}
	// Count over 100 ticks in one run so one allocation cannot round away.
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			step(iter)
			iter++
		}
	}); allocs != 0 {
		b.Fatalf("steady-state Sample allocated %v times over 100 ticks, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(iter + i)
	}
}

func benchName(prefix string, v int) string {
	return prefix + strconv.Itoa(v)
}

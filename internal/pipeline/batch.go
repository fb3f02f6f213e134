package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"

	"penelope/internal/trace"
)

// RunBatch runs every source through an independent core built from cfg,
// fanning the work out over a pool of workers, and returns the results in
// source order. It is RunVariants with cfg's own mitigation as the one
// variant and every structure accounted.
func RunBatch(cfg Config, sources []trace.Source, workers int) []Result {
	return RunVariants(cfg, []Mitigation{cfg.mitigation()}, AccountAll, sources, workers)[0]
}

// RunVariants runs every source once through a core built from cfg and
// reports it under each mitigation variant: out[v][i] is the Result of
// sources[i] with cfg's EnableISV and SchedPlan replaced by variants[v].
// One timing pass per source drives, for the structures in accounts, a
// register-file pair per distinct ISV setting and a scheduler per
// distinct plan (compared by pointer); structures outside accounts
// report zero values, and everything else in the Result is the same for
// any accounts. Mitigations never change timing, so every Result is
// bit-identical to the same fields of running that variant's config
// alone. Options that do change timing, such as the cache schemes, need
// separate runs.
//
// The runs fan out over a pool of workers and land in source order. Each
// worker builds one Core and reuses it for every source it takes; a run
// starts from the core's built state and sources are deterministic
// streams, so the results are bit-identical to a serial sweep,
// regardless of the worker count or scheduling order.
//
// workers <= 0 uses GOMAXPROCS. Sources are stateful streams, so the
// parallel path gives every job its own Fork: replay cursors fork into
// fresh cursors over the one shared immutable recording (no copy, no
// re-synthesis), generator traces fork into independent generators. The
// same source may therefore appear any number of times in the slice.
func RunVariants(cfg Config, variants []Mitigation, accounts Accounts, sources []trace.Source, workers int) [][]Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := len(sources)
	flat := make([]Result, len(variants)*n)
	results := make([][]Result, len(variants))
	for v := range results {
		results[v] = flat[v*n : (v+1)*n : (v+1)*n]
	}
	if n == 0 || len(variants) == 0 {
		return results
	}
	simulate := func(c *Core, i int, src trace.Source) {
		c.Run(src)
		for v, m := range variants {
			results[v][i] = c.Result(m)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		c := NewCore(cfg, variants, accounts)
		for i, src := range sources {
			simulate(c, i, src)
		}
		return results
	}

	jobs := make([]trace.Source, n)
	for i, src := range sources {
		jobs[i] = src.Fork()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			c := NewCore(cfg, variants, accounts)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				simulate(c, i, jobs[i])
			}
		}()
	}
	wg.Wait()
	return results
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"penelope/internal/cache"
	"penelope/internal/experiments"
	"penelope/internal/lifetime"
	"penelope/internal/pipeline"
	"penelope/internal/store"
	"penelope/internal/trace"
)

// coverageTolerance bounds how much of the client latency the spans may
// leave unexplained: the layer self times must add up to at least this
// share of it (they cannot exceed it; overlaps are counted once).
const coverageTolerance = 0.10

// spanPriority orders the span names: each instant of a job is charged
// to the covering span that comes first here, so server work inside a
// client request or poll wait is the server's self time, and client
// spans keep only the time the server spent on nothing of this job.
var spanPriority = []string{
	"server.run", "server.store-write", "server.queue-wait", "server.admit", "server.follow", "server.done",
	"fetch", "submit", "poll", "poll-sleep",
}

// selfTimes charges every instant of each job's [start, end] window to
// its highest-priority covering child span. It returns the self time per
// span name (ns) and, per job, the time no child covered: the root "job"
// span's self time.
func selfTimes(out []outcome) (map[string]int64, []int64) {
	rank := func(name string) int {
		if i := slices.Index(spanPriority, name); i >= 0 {
			return i
		}
		return len(spanPriority)
	}
	self := map[string]int64{}
	var gaps []int64
	for _, o := range out {
		if o.err != "" {
			continue
		}
		var children []span
		for _, sp := range o.spans {
			if sp.Parent != "" {
				children = append(children, sp)
			}
		}
		var cuts []int64
		for _, sp := range children {
			cuts = append(cuts, max(sp.Start, o.start), min(sp.End, o.end))
		}
		cuts = append(cuts, o.start, o.end)
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		var gap int64
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if lo < o.start || hi > o.end {
				continue
			}
			best := ""
			for _, sp := range children {
				if sp.Start <= lo && sp.End >= hi && (best == "" || rank(sp.Name) < rank(best)) {
					best = sp.Name
				}
			}
			if best == "" {
				gap += hi - lo
			} else {
				self[best] += hi - lo
			}
		}
		gaps = append(gaps, gap)
	}
	return self, gaps
}

// spanStats returns the median duration (ms) of the spans named name,
// one sum per job that has any, or 0 when no job has one.
func spanStats(out []outcome, name string) float64 {
	var per []float64
	for _, o := range out {
		var sum int64
		found := false
		for _, sp := range o.spans {
			if sp.Name == name {
				sum += sp.End - sp.Start
				found = true
			}
		}
		if found && o.err == "" {
			per = append(per, float64(sum)/1e6)
		}
	}
	return median(per)
}

// recorder keeps the in-process replay spans in memory.
type recorder struct{ spans []span }

// timed runs fn under a span and returns its duration.
func (r *recorder) timed(name, parent string, job int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent, Start: t0.UnixNano(), End: t1.UnixNano()})
	return t1.Sub(t0)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerMetrics computes the per-layer metrics of a traced run: the
// service split from the measured phase's spans, then in-process replays
// of each layer's public functions on the workload's own requests (and,
// for experiments the workload lacks, on the other workloads' generators
// with the same seed). The replays run after the server has stopped, so
// they do not compete with it for the cores.
func layerMetrics(cfg config, dir string, list []request, out []outcome,
	before, after serverCounters, checkpoints int, payloads [][]byte) (map[string]metric, []string) {
	m := map[string]metric{}
	var problems []string
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	lat := latencies(out)
	jobs := float64(len(lat))

	self, gaps := selfTimes(out)
	var gapSum, latSum int64
	for _, g := range gaps {
		gapSum += g
	}
	for _, o := range out {
		if o.err == "" {
			latSum += o.end - o.start
		}
	}
	coverage := 1 - float64(gapSum)/float64(latSum)
	polls := 0
	for _, o := range out {
		polls += o.polls
	}
	put("service.submit_ms", spanStats(out, "submit"), "ms")
	put("service.fetch_ms", spanStats(out, "fetch"), "ms")
	put("service.polls_per_job", float64(polls)/jobs, "polls/job")
	put("service.queue_wait_ms", spanStats(out, "server.queue-wait"), "ms")
	put("service.run_ms", spanStats(out, "server.run"), "ms")
	put("service.store_write_ms", spanStats(out, "server.store-write"), "ms")
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	put("service.cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	put("service.unattributed_ms", float64(gapSum)/1e6/jobs, "ms")
	put("attribution.coverage", coverage, "ratio")
	put("runtime.gc_runs_per_job", (after.GCRuns-before.GCRuns)/jobs, "count/job")
	put("store.checkpoints_per_job", float64(checkpoints)/jobs, "count/job")
	if coverage < 1-coverageTolerance {
		problems = append(problems, fmt.Sprintf("attribution: spans cover %.3f of client latency, below %.2f", coverage, 1-coverageTolerance))
	}

	rec := &recorder{}
	problems = append(problems, replayMetrics(cfg, dir, list, payloads, rec, put)...)

	// Every span, HTTP phase and replays, goes to one file per workload.
	var spans []span
	for _, o := range out {
		spans = append(spans, o.spans...)
	}
	spans = append(spans, rec.spans...)
	path := filepath.Join(cfg.work, "spans-"+cfg.workload.name+".ndjson")
	if err := writeSpans(path, spans); err != nil {
		problems = append(problems, err.Error())
	}
	for _, sp := range rec.spans {
		self[sp.Name] += sp.End - sp.Start
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# spans: %d written to %s; self time per layer (ms, all jobs):", len(spans), path)
	for _, n := range names {
		fmt.Printf(" %s=%.1f", n, float64(self[n])/1e6)
	}
	fmt.Printf(" unattributed=%.1f\n", float64(gapSum)/1e6)
	return m, problems
}

// replayMetrics times each layer's public entry points in this process.
// Memoized first calls are timed as first calls: experiments.Run of a
// new trace workload includes synthesizing its bank, and the first
// lifetime request of a workload includes measuring its duty profile.
// It returns the replay calls that failed.
func replayMetrics(cfg config, dir string, list []request, payloads [][]byte, rec *recorder, put func(string, float64, string)) []string {
	var problems []string
	fail := func(what string, err error) {
		if err != nil {
			problems = append(problems, fmt.Sprintf("replay %s: %v", what, err))
		}
	}
	own := distinct(list)
	sims := pick(own, 4, "fig6", "fig8")
	if len(sims) == 0 {
		sims = pick(distinct(simMissJobs(cfg.seed, 8)), 4, "fig6", "fig8")
	}
	fleets := pick(own, 3, "lifetime")
	if len(fleets) == 0 {
		fleets = pick(distinct(fleetMissJobs(cfg.seed, 3)), 3, "lifetime")
	}
	fmt.Println("# replay: experiments.Run is timed on first calls; each new trace workload includes its bank synthesis and the first lifetime request includes its duty profile")

	byID := map[string][]float64{}
	var marshal, sizes []float64
	for i, r := range append(slices.Clone(sims), fleets...) {
		var res experiments.Result
		var err error
		d := rec.timed("experiments.Run/"+r.Experiment, "replay", i, func() { res, err = experiments.Run(r.Experiment, r.canonical()) })
		fail("experiments.Run", err)
		byID[r.Experiment] = append(byID[r.Experiment], ms(d))
		var b []byte
		d = rec.timed("experiments.Marshal", "replay", i, func() { b, err = experiments.NewPayload(res, r.canonical()).Marshal() })
		fail("experiments.Marshal", err)
		if ownsExperiment(list, r.Experiment) {
			marshal = append(marshal, ms(d))
			sizes = append(sizes, float64(len(b))/1024)
		}
	}
	put("experiments.fig6_ms", median(byID["fig6"]), "ms")
	put("experiments.fig8_ms", median(byID["fig8"]), "ms")
	put("experiments.lifetime_ms", median(byID["lifetime"]), "ms")
	put("experiments.marshal_ms", median(marshal), "ms")
	put("experiments.payload_kb", mean(sizes), "KiB")

	// Trace and pipeline layers on the workload's own trace workloads.
	var banks []float64
	var replayUops, replayNS float64
	var rates [3][2]float64 // baseline, penelope, cache-inversion: uops, ns
	var mallocs, runs uint64
	inv := pipeline.DefaultConfig()
	inv.DL0Options = cache.DefaultDynamicOptions(0.5, 0.02, 17)
	for i, o := range traceWorkloads(list, sims) {
		var b *trace.Bank
		for k := 0; k < 3; k++ {
			banks = append(banks, ms(rec.timed("trace.NewBank", "replay", i, func() { b = trace.NewBank(o.TraceLength, o.TraceStride) })))
		}
		d := rec.timed("trace.Cursor", "replay", i, func() {
			for _, src := range b.Sources() {
				for {
					if _, ok := src.NextUop(); !ok {
						break
					}
					replayUops++
				}
			}
		})
		replayNS += float64(d)
		pen := pipeline.DefaultConfig()
		pen.EnableISV = true
		pen.SchedPlan = experiments.Fig8(o).Plan
		for c, pc := range []pipeline.Config{pipeline.DefaultConfig(), pen, inv} {
			var res []pipeline.Result
			d := rec.timed("pipeline.RunBatch", "replay", i, func() { res = pipeline.RunBatch(pc, b.Sources(), 0) })
			for _, r := range res {
				rates[c][0] += float64(r.Uops)
			}
			rates[c][1] += float64(d)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, src := range b.Sources() {
			pipeline.Run(pipeline.DefaultConfig(), src)
			runs++
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
	}
	put("trace.bank_ms", median(banks), "ms")
	put("trace.replay_uops_per_s", replayUops/replayNS*1e9, "uops/s")
	put("pipeline.baseline_uops_per_s", rates[0][0]/rates[0][1]*1e9, "uops/s")
	put("pipeline.penelope_uops_per_s", rates[1][0]/rates[1][1]*1e9, "uops/s")
	put("pipeline.cache_inv_uops_per_s", rates[2][0]/rates[2][1]*1e9, "uops/s")
	put("pipeline.allocs_per_run", float64(mallocs)/float64(runs), "allocs/run")

	// The lifetime engine alone, at the fleet requests' population.
	var chipEpochs, engineNS float64
	for i, r := range fleets {
		fc := experiments.FleetConfig(r.canonical(), false)
		var err error
		d := rec.timed("lifetime.Engine", "replay", i, func() {
			var eng *lifetime.Engine
			if eng, err = lifetime.New(fc); err == nil {
				eng.Run(0)
				chipEpochs += float64(fc.Population) * float64(eng.TotalEpochs())
			}
		})
		fail("lifetime.New", err)
		engineNS += float64(d)
	}
	put("lifetime.chip_epochs_per_s", chipEpochs/engineNS*1e9, "chip_epochs/s")

	// A fresh store on the run's filesystem, fed the served payloads.
	var puts, gets []float64
	st, err := store.Open(filepath.Join(dir, "store-replay"))
	fail("store.Open", err)
	if err == nil {
		defer st.Close()
		for i := 0; i < 64 && len(payloads) > 0; i++ {
			p := payloads[i%len(payloads)]
			key := fmt.Sprintf("%032x", i+1)
			puts = append(puts, ms(rec.timed("store.Put", "replay", i, func() { err = st.Put(key, p) })))
			fail("store.Put", err)
			var ok bool
			gets = append(gets, ms(rec.timed("store.Get", "replay", i, func() { _, ok = st.Get(key) })))
			if !ok {
				fail("store.Get", fmt.Errorf("key %s not found after Put", key))
			}
		}
	}
	put("store.put_ms", median(puts), "ms")
	put("store.get_ms", median(gets), "ms")
	return problems
}

// distinct drops repeated keys, keeping list order.
func distinct(list []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range list {
		if k := r.key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// pick returns up to n requests of each listed experiment.
func pick(list []request, n int, ids ...string) []request {
	var out []request
	for _, id := range ids {
		k := 0
		for _, r := range list {
			if r.Experiment == id && k < n {
				out = append(out, r)
				k++
			}
		}
	}
	return out
}

func ownsExperiment(list []request, id string) bool {
	return slices.ContainsFunc(list, func(r request) bool { return r.Experiment == id })
}

// traceWorkloads returns the distinct trace workloads the replay sample
// uses: the workload's own trace-driven requests, or the sim sample for
// a workload with none.
func traceWorkloads(list, sims []request) []experiments.Options {
	var src []request
	for _, r := range distinct(list) {
		if spec, _ := experiments.Lookup(r.Experiment); !spec.OptionsFree {
			src = append(src, r)
		}
	}
	if len(src) == 0 {
		src = sims
	}
	seen := map[[2]int]bool{}
	var out []experiments.Options
	for _, r := range src {
		o := r.canonical()
		k := [2]int{o.TraceLength, o.TraceStride}
		if !seen[k] && len(out) < 4 {
			seen[k] = true
			out = append(out, o)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dirWatch counts fleet checkpoints the server renames into place under
// <data-dir>/checkpoints, from inotify IN_MOVED_TO events. It also
// subscribes to IN_CREATE of the temp file each atomic write starts
// with: inotify merges an unread event into an identical one queued
// right before it, which would fold repeated checkpoints of one job.
type dirWatch struct {
	fd    int
	stop  chan struct{}
	count chan int
}

func watchCheckpoints(dataDir string) (*dirWatch, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, fmt.Errorf("inotify: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, filepath.Join(dataDir, "checkpoints"), syscall.IN_CREATE|syscall.IN_MOVED_TO); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("inotify: %w", err)
	}
	w := &dirWatch{fd: fd, stop: make(chan struct{}), count: make(chan int, 1)}
	go w.loop()
	return w, nil
}

// loop drains the event queue every 10ms, and once more after stop.
func (w *dirWatch) loop() {
	n := 0
	buf := make([]byte, 64<<10)
	drain := func() {
		for {
			k, err := syscall.Read(w.fd, buf)
			if err != nil || k <= 0 {
				return
			}
			for off := 0; off+syscall.SizeofInotifyEvent <= k; {
				ev := (*syscall.InotifyEvent)(unsafe.Pointer(&buf[off]))
				name := strings.TrimRight(string(buf[off+syscall.SizeofInotifyEvent:off+syscall.SizeofInotifyEvent+int(ev.Len)]), "\x00")
				if ev.Mask&syscall.IN_Q_OVERFLOW != 0 {
					n = -1 << 40
				}
				if ev.Mask&syscall.IN_MOVED_TO != 0 && strings.HasSuffix(name, ".ckpt") {
					n++
				}
				off += syscall.SizeofInotifyEvent + int(ev.Len)
			}
		}
	}
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			drain()
		case <-w.stop:
			drain()
			syscall.Close(w.fd)
			w.count <- n
			return
		}
	}
}

// close stops the watch and returns the checkpoints counted; negative
// if the kernel queue overflowed.
func (w *dirWatch) close() int {
	if w == nil {
		return 0
	}
	close(w.stop)
	return <-w.count
}

// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh does); it launches the real `penelope serve`
// binary, drives it over loopback from two closed-loop clients with a
// seeded, fixed job list, checks every result, and prints one JSON line
// with the end-to-end metrics or, with -trace 1, the per-layer metrics.
// README.md lists the workloads and which end-to-end metric each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// setupRuns is how many times a run sets the server up from scratch;
// setup_s is the median, and the last server is the one measured.
const setupRuns = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload workload
	seed     uint64
	seconds  int
	traced   bool
	binary   string
	work     string // scratch directory, inside the checkout
}

// repoRoot is the checkout root, which the benchmark runs from; the
// committed goldens are read from under it.
const repoRoot = "."

func main() {
	var (
		name    = flag.String("workload", "sim-miss", "workload: sim-miss, fleet-miss or hit-read")
		seed    = flag.Uint64("seed", 1, "seed of the job list")
		seconds = flag.Int("seconds", 10, "run length: the job list holds about this many seconds of work")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		binary  = flag.String("penelope", ".bench_build/bin/penelope", "penelope binary to serve")
		work    = flag.String("work", ".bench_build/runs", "scratch directory for data dirs, logs and span files")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(config{workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1,
		binary: *binary, work: *work})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run makes one benchmark run: set-up (several times), the measured
// phase, the output checks and, when traced, the in-process layer
// replays.
func run(cfg config) (result, error) {
	w := cfg.workload
	list := w.jobs(cfg.seed, w.perSecond*cfg.seconds)
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	// Kept after a failed run, for the server logs.
	kept := true
	defer func() {
		if !kept {
			os.RemoveAll(dir)
		}
	}()
	fmt.Printf("# perfbench workload=%s seed=%d jobs=%d rounds=%d clients=%d loop=closed tail=p%.4g nproc=%d GOMAXPROCS=%d go=%s data_fs=%s\n",
		w.name, cfg.seed, len(list), rounds, clients, tailPercentile(len(list)/rounds),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))

	client := newHTTPClient()
	warm := w.warm(cfg.seed)
	var problems []string
	var setups []float64
	var srv *server
	var warmOut []outcome
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := startServer(cfg.binary, filepath.Join(dir, fmt.Sprintf("data-%d", i)), client)
		if err != nil {
			return result{}, err
		}
		if err := s.waitReady(); err != nil {
			s.stop()
			return result{}, err
		}
		out, _ := runPhase(s, warm, false, nil)
		setups = append(setups, time.Since(t0).Seconds())
		for j, o := range out {
			if o.err != "" {
				s.stop()
				return result{}, fmt.Errorf("set-up job %s failed: %s", warm[j].Experiment, o.err)
			}
		}
		if i < setupRuns-1 {
			s.stop()
			continue
		}
		srv, warmOut = s, out
	}
	defer srv.stop()
	// Flush what set-up and the build left dirty, so the measured
	// phase's fsyncs do not pay for it.
	syscall.Sync()

	var refs map[string][]byte
	var err error
	for i, o := range warmOut {
		if err := checkPayload(warm[i], o.payload); err != nil {
			problems = append(problems, "set-up: "+err.Error())
		}
	}
	if w.hits {
		refs = map[string][]byte{}
		for i, o := range warmOut {
			refs[o.key] = o.payload
			if slices.Contains(goldenIDs, warm[i].Experiment) {
				if err := checkGolden(repoRoot, warm[i].Experiment, o.payload); err != nil {
					problems = append(problems, err.Error())
				}
			}
		}
	}

	var watch *dirWatch
	if cfg.traced {
		if watch, err = watchCheckpoints(srv.dataDir); err != nil {
			return result{}, err
		}
	}
	before, err := srv.counters()
	if err != nil {
		return result{}, err
	}
	out, rates, p50s, tails := runRounds(srv, list, cfg.traced, refs)
	after, err := srv.counters()
	if err != nil {
		return result{}, err
	}
	checkpoints := watch.close()
	if checkpoints < 0 {
		problems = append(problems, "checkpoint watch: inotify queue overflowed")
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return result{}, err
	}

	// Golden-option jobs after the measured phase, so that a change to
	// any simulated statistic fails every workload's run.
	if !w.hits {
		problems = append(problems, goldenJobs(srv, w)...)
	}
	srv.stop()

	failed := 0
	for i, o := range out {
		if o.err == "" && !w.hits {
			if err := checkPayload(list[i], o.payload); err != nil {
				o.err = err.Error()
				out[i] = o
			}
		}
		if o.err != "" {
			failed++
			if failed <= 5 {
				problems = append(problems, fmt.Sprintf("job %d (%s): %s", i, list[i].Experiment, o.err))
			}
		}
	}
	problems = append(problems, guardProblems(w, list, out, before, after)...)
	if !w.hits {
		problems = append(problems, sampleProblems(cfg.seed, list, out)...)
	}

	fmt.Printf("# rounds: jobs/s %.4g, p50 ms %.4g, tail ms %.4g\n", rates, p50s, tails)
	res := result{Attempted: len(list), Failed: failed, Metrics: map[string]metric{}}
	if cfg.traced {
		// The store replay is fed served payloads; hit-read's are the
		// set-up ones, since its measured phase drops them.
		src := out
		if w.hits {
			src = warmOut
		}
		var payloads [][]byte
		for _, o := range src {
			if len(o.payload) > 0 && len(payloads) < 64 {
				payloads = append(payloads, o.payload)
			}
		}
		lm, lp := layerMetrics(cfg, dir, list, out, before, after, checkpoints, payloads)
		lm["tracing.jobs_per_s"] = metric{median(rates), "1/s"}
		lm["tracing.latency_p50_ms"] = metric{median(p50s), "ms"}
		res.Metrics = lm
		problems = append(problems, lp...)
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["jobs_per_s"] = metric{median(rates), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{median(p50s), "ms"}
		res.Metrics["latency_tail_ms"] = metric{median(tails), "ms"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	}
	for _, p := range problems {
		fmt.Println("# FAIL", p)
	}
	res.Correct = len(problems) == 0 && failed == 0
	kept = !res.Correct
	return res, nil
}

// runRounds runs the list round by round and returns every outcome with
// each round's throughput (successful jobs per second of the round's
// wall time), median latency and tail latency.
func runRounds(s *server, list []request, traced bool, refs map[string][]byte) (out []outcome, rates, p50s, tails []float64) {
	per := len(list) / rounds
	for k := 0; k < rounds; k++ {
		o, wall := runPhase(s, list[k*per:(k+1)*per], traced, refs)
		for i := range o {
			for j := range o[i].spans {
				o[i].spans[j].Job += k * per
			}
		}
		lat := latencies(o)
		rates = append(rates, float64(len(lat))/wall.Seconds())
		p50s = append(p50s, median(lat))
		tails = append(tails, tail(lat))
		out = append(out, o...)
	}
	return out, rates, p50s, tails
}

// goldenJobs submits the golden-option requests of the workload's
// experiment family (fig6 and fig8, or lifetime and yield) and compares
// the payloads with the committed goldens.
func goldenJobs(s *server, w workload) []string {
	ids := []string{"fig6", "fig8"}
	if w.name == "fleet-miss" {
		ids = []string{"lifetime", "yield"}
	}
	var list []request
	for _, id := range ids {
		list = append(list, request{id, goldenOptions()})
	}
	out, _ := runPhase(s, list, false, nil)
	var problems []string
	for i, o := range out {
		if o.err != "" {
			problems = append(problems, fmt.Sprintf("golden %s: %s", ids[i], o.err))
		} else if err := checkGolden(repoRoot, ids[i], o.payload); err != nil {
			problems = append(problems, "golden: "+err.Error())
		}
	}
	return problems
}

// guardProblems checks that the workload exercised the path it is meant
// to: miss workloads submit distinct keys and never hit the cache;
// hit-read hits on every job and never runs a simulation.
func guardProblems(w workload, list []request, out []outcome, before, after serverCounters) []string {
	var problems []string
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if w.hits {
		if misses != 0 {
			problems = append(problems, fmt.Sprintf("guard: hit-read ran %d simulations", misses))
		}
		for i, o := range out {
			if o.err == "" && !o.cacheHit {
				problems = append(problems, fmt.Sprintf("guard: hit-read job %d was not a cache hit", i))
				break
			}
		}
		return problems
	}
	seen := map[string]bool{}
	for _, r := range list {
		k := r.key()
		if seen[k] {
			problems = append(problems, "guard: duplicate key "+k)
			break
		}
		seen[k] = true
	}
	if hits != 0 {
		problems = append(problems, fmt.Sprintf("guard: %s served %d cache hits", w.name, hits))
	}
	for i, o := range out {
		if o.err == "" && o.cacheHit {
			problems = append(problems, fmt.Sprintf("guard: %s job %d was a cache hit", w.name, i))
			break
		}
	}
	return problems
}

// sampleProblems recomputes two seeded jobs of each experiment in this
// process and requires the served payloads to be byte-identical.
func sampleProblems(seed uint64, list []request, out []outcome) []string {
	r := rng(seed, 4)
	picked := map[string]int{}
	var problems []string
	for _, i := range r.Perm(len(list)) {
		id := list[i].Experiment
		if picked[id] == 2 || out[i].err != "" {
			continue
		}
		picked[id]++
		want, err := reference(list[i])
		if err == nil && string(want) != string(out[i].payload) {
			err = fmt.Errorf("served payload differs from the in-process payload (%d vs %d bytes)", len(out[i].payload), len(want))
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("sample job %d (%s): %v", i, id, err))
		}
	}
	return problems
}

// latencies returns the client latencies of the successful jobs, in ms.
func latencies(out []outcome) []float64 {
	var lat []float64
	for _, o := range out {
		if o.err == "" {
			lat = append(lat, o.latencyMS())
		}
	}
	return lat
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest-percentile sample with at least ten beyond it.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[tailIndex(len(s))]
}

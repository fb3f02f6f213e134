// Command penelope regenerates the tables and figures of "Penelope: The
// NBTI-Aware Processor" (MICRO 2007) from the Go reproduction, and can
// serve them over HTTP as a long-running experiment service.
//
// Usage:
//
//	penelope run -experiment all
//	penelope run -experiment fig4 -json
//	penelope run -experiment table3 -length 20000 -stride 8
//	penelope run -experiment lifetime -population 100000 -years 7 -attack-years 1
//	penelope run -experiment lifetime -workers 8
//	penelope serve -addr :8080
//	penelope serve -addr :8080 -data-dir /var/lib/penelope -rate 5 -burst 20
//	penelope serve -data-dir /var/lib/penelope -fleet-config fleets.json -alert-webhook http://ops/hook
//
// The experiment list comes from the experiments registry (run
// `penelope run -h`). Length is uops per trace; stride subsamples the
// 531-trace workload (1 = full workload, as in the paper — slow). The
// fleet flags parameterize the lifetime/yield experiments. With
// -data-dir the server persists results to a content-addressed store
// and recomputes interrupted lifetime and yield jobs after a restart;
// -rate/-burst enable per-client rate limiting and -job-timeout bounds
// each attempt. -store-budget and -store-retention bound the on-disk
// result cache (LRU results are evicted first, then oversized cache
// writes shed; job and fleet records are never evicted) and
// -scrub-interval re-verifies stored frames against their checksums in
// the background.
// -fleet-config schedules continuously-aged populations at boot (they
// also register over POST /v1/fleets and resume from -data-dir
// sidecars); -fleet-tick paces their epochs and -alert-webhook receives
// their threshold and wearout-attack alerts. GET /metrics serves
// Prometheus text (JSON at /metrics.json) and -pprof serves
// net/http/pprof on its own loopback listener, off by default.
// Every metric family is also sampled into an embedded time-series
// store (-history-interval, default 10s) queryable over GET
// /v1/metrics/query and rendered live on GET /dashboard; with -data-dir
// the history persists across restarts for -history-retention.
// -slo-config declares burn-rate/threshold/slope objectives evaluated
// against that history; breaches fire through the same alert pipeline.
// Invoking penelope with flags but no subcommand behaves like `run`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/service"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "-h" || args[0] == "--help" || args[0] == "help") {
		usage(os.Stdout)
		return
	}
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		runCmd(args)
	case "serve":
		serveCmd(args)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w *os.File) {
	fmt.Fprintf(w, `penelope regenerates the paper's tables and figures.

Commands:
  run    execute experiments and print them (default command)
  serve  serve experiments over HTTP with a job queue and result cache

Run "penelope <command> -h" for the command's flags.
Experiments: %s|all
`, experiments.IDList())
}

// parseFlags parses a command's flags, exiting 2 on a usage error. Both
// commands take flags only, so a word left after them is one too: an
// experiment id without -experiment, or a flag after a stray word,
// which the parser would otherwise never read.
func parseFlags(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}
}

// runCmd executes one experiment (or all of them) and renders the
// result as text, or as one JSON payload per line with -json.
func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		exp    = fs.String("experiment", "all", "experiment id: "+experiments.IDList()+"|all")
		length = fs.Int("length", 0, "uops per trace (default 12000)")
		stride = fs.Int("stride", 0, "workload subsampling stride (default 12; 1 = all 531 traces)")
		asJSON = fs.Bool("json", false, "emit structured JSON payloads (one per line) instead of text")

		population = fs.Int("population", 0, "fleet size for lifetime/yield (default 5000)")
		years      = fs.Float64("years", 0, "simulated service life in years (default 7)")
		epochDays  = fs.Float64("epoch-days", 0, "lifetime engine epoch length in days (default 30)")
		sigma      = fs.Float64("sigma", 0, "process-variation sigma (default 0.08; negative disables variation)")
		attack     = fs.Float64("attack-years", 0, "wearout-attack phase length in years (default none)")
		fleetSeed  = fs.Uint64("fleet-seed", 0, "per-chip sampling seed (default 1)")
		workers    = fs.Int("workers", 0, "lifetime engine worker count (default GOMAXPROCS; results identical for any value)")
	)
	parseFlags(fs, args)

	opts := experiments.DefaultOptions()
	if *length > 0 {
		opts.TraceLength = *length
	}
	if *stride > 0 {
		opts.TraceStride = *stride
	}
	if *population > 0 {
		opts.Population = *population
	}
	if *years > 0 {
		opts.Years = *years
	}
	if *epochDays > 0 {
		opts.EpochDays = *epochDays
	}
	if *sigma != 0 {
		opts.VariationSigma = *sigma
	}
	if *attack > 0 {
		opts.AttackYears = *attack
	}
	if *fleetSeed != 0 {
		opts.FleetSeed = *fleetSeed
	}
	opts.Workers = *workers

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	w := os.Stdout
	for _, id := range ids {
		res, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *asJSON {
			payload, err := experiments.NewPayload(res, opts).MarshalCompact()
			if err != nil {
				fmt.Fprintf(os.Stderr, "marshal %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Fprintf(w, "%s\n", payload)
		} else {
			res.Render(w)
		}
	}
}

// serveCmd starts the experiment service: a worker pool over the
// simulator with a content-addressed result cache (persisted to
// -data-dir when set), exposed as an HTTP JSON API with per-client fair
// scheduling and admission control.
func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "simulation worker count (default: GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "job queue depth (default 256)")
		dataDir    = fs.String("data-dir", "", "persist results, job records and fleets under this directory; survives restarts")
		rate       = fs.Float64("rate", 0, "per-client submissions/second (0 = unlimited; sweeps charge one per grid point)")
		burst      = fs.Int("burst", 0, "per-client rate-limit burst (default ceil(rate))")
		jobTimeout = fs.Duration("job-timeout", 0, "per-job runner timeout (0 = unbounded)")

		storeBudget    = fs.Int64("store-budget", 0, "disk budget in bytes for cached result payloads; past it LRU results are evicted and oversized cache writes shed (0 = unbounded; job and fleet records are never evicted)")
		storeRetention = fs.Duration("store-retention", 0, "evict cached results unused for longer than this (0 = keep forever)")
		scrubInterval  = fs.Duration("scrub-interval", time.Minute, "background re-verification interval for stored result checksums (0 = off)")

		fleetConfig  = fs.String("fleet-config", "", "JSON file of fleet registrations to schedule at boot ({\"fleets\": [...]} or a bare array)")
		fleetTick    = fs.Duration("fleet-tick", 0, "default interval between fleet epoch ticks (default 30s); failed ticks retry after 1/30 of it and quarantine lasts 10×")
		alertWebhook = fs.String("alert-webhook", "", "POST fired fleet alerts to this URL (retries, circuit breaker, dead-letter queue)")

		historyInterval  = fs.Duration("history-interval", 0, "metric-history sampling cadence behind /v1/metrics/query and /dashboard (default 10s; negative disables history)")
		historyRetention = fs.Duration("history-retention", 0, "how long persisted metric-history blocks are kept under -data-dir (default 168h)")
		sloConfig        = fs.String("slo-config", "", "JSON file of SLO rules evaluated against the metric history ({\"rules\": [...]} or a bare array); breaches alert like fleet alerts")

		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address, e.g. 127.0.0.1:6060 (default off; keep it loopback — the profiler is unauthenticated)")
	)
	parseFlags(fs, args)

	logger := slog.Default().With("component", "serve")
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	sloRules, err := loadSLOConfig(*sloConfig)
	if err != nil {
		fatal("-slo-config", err)
	}
	srv, err := service.New(service.Config{
		Workers: *workers, QueueDepth: *queue,
		DataDir: *dataDir, Rate: *rate, Burst: *burst, JobTimeout: *jobTimeout,
		StoreBudget: *storeBudget, StoreRetention: *storeRetention, ScrubInterval: *scrubInterval,
		FleetTick: *fleetTick, AlertWebhook: *alertWebhook,
		HistoryInterval: *historyInterval, HistoryRetention: *historyRetention,
		SLORules: sloRules,
	})
	if err != nil {
		fatal("starting service", err)
	}
	if *fleetConfig != "" {
		n, err := registerFleetConfig(srv, *fleetConfig)
		if err != nil {
			fatal("-fleet-config", err)
		}
		logger.Info("scheduled fleet registrations", "count", n, "file", *fleetConfig)
	}
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal("-pprof listen", err)
		}
		// Explicit mux: the profiler never rides on the API listener,
		// and nothing else is reachable on the profiling port.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(pln, pmux); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server failed", "error", err)
			}
		}()
		logger.Info("profiling enabled", "addr", pln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("draining (in-flight lifetime and yield jobs recompute at the next boot)")
		// Stop accepting connections, then drain the pool: in-flight
		// jobs see their context cancelled, and an interrupted lifetime or
		// yield job's record resubmits it at the next boot.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
		srv.Close()
		httpSrv.Close()
	}()
	logger.Info("listening", "addr", ln.Addr().String(), "workers", srv.Workers())
	if *dataDir != "" {
		logger.Info("persisting results", "dir", *dataDir)
	}
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal("serving", err)
	}
	srv.Close()
}

// loadSLOConfig reads a -slo-config file: {"rules": [...]} or a bare
// array of rules. The rules themselves are validated by the service.
func loadSLOConfig(path string) ([]fleetops.SLORule, error) {
	if path == "" {
		return nil, nil
	}
	return loadList[fleetops.SLORule](path, "rules")
}

// loadList reads a JSON file holding {"<key>": [...]} or a bare array.
func loadList[T any](path, key string) ([]T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseList[T](data, key)
}

// parseList decodes {"<key>": [...]} or a bare array. A wrapped list
// that is present, even empty, wins; anything else must parse as a bare
// array.
func parseList[T any](data []byte, key string) ([]T, error) {
	wrapped := reflect.New(reflect.StructOf([]reflect.StructField{{
		Name: "List", Type: reflect.TypeFor[[]T](), Tag: reflect.StructTag(fmt.Sprintf("json:%q", key)),
	}}))
	if err := json.Unmarshal(data, wrapped.Interface()); err == nil {
		if list := wrapped.Elem().Field(0).Interface().([]T); list != nil {
			return list, nil
		}
	}
	var list []T
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("want {%q: [...]} or a bare array: %w", key, err)
	}
	return list, nil
}

// registerFleetConfig schedules every registration in a -fleet-config
// file. Registrations already resumed from data-dir sidecars are
// skipped silently, so a fixed config file plus a persistent data dir
// is idempotent across restarts.
func registerFleetConfig(srv *service.Server, path string) (int, error) {
	regs, err := loadList[fleetops.Registration](path, "fleets")
	if err != nil {
		return 0, err
	}
	n := 0
	for _, reg := range regs {
		_, err := srv.RegisterFleet(reg)
		switch {
		case errors.Is(err, fleetops.ErrExists):
			// Already resumed from its sidecar.
			continue
		case err != nil:
			return n, fmt.Errorf("fleet %q: %w", reg.Name, err)
		}
		n++
	}
	return n, nil
}

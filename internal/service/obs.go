package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/obs"
	"penelope/internal/store"
)

// This file is the server's observability surface: the per-server
// metrics registry (Prometheus text on GET /metrics, the original JSON
// payload on /metrics.json or Accept: application/json), the tracer
// whose component rings back /v1/debug/traces (a job's own trace, held
// by the job, backs /v1/jobs/{id}/trace), and the histograms the hot
// paths feed. Every server owns its own Registry and Tracer — nothing
// is global — so tests and multi-server processes never collide.

// httpLatencyFamily is the per-route request histogram's family name,
// named once because the JSON payload excludes it (scrapes observe
// themselves; see Metrics.Histograms).
const httpLatencyFamily = "penelope_http_request_seconds"

// serverObs bundles the service tier's own instruments. The job
// counters are the single source both /metrics.json and the Prometheus
// exposition read. The registry also carries the store and fleetops
// families (registered by their NewInstruments constructors) and
// CounterFunc/GaugeFunc views of component stats, so one scrape sees
// the whole process.
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	httpSeconds *obs.HistogramVec // request latency by route pattern
	jobSeconds  *obs.Histogram    // submit → terminal state
	queueWait   *obs.Histogram    // submit → worker pickup (leaders)
	runSeconds  *obs.HistogramVec // runner latency by experiment

	done      *obs.Counter // jobs finished successfully
	failed    *obs.Counter // jobs finished with an error
	rejected  *obs.Counter // submissions dropped because the queue was full
	throttled *obs.Counter // submissions rejected by per-client rate limiting
	panics    *obs.Counter // driver panics recovered into failed jobs
	timeouts  *obs.Counter // jobs failed by the per-job timeout
	resumed   *obs.Counter // interrupted jobs resubmitted at boot
	untracked *obs.Counter // requests folded into the ~other client cell
}

// initObs builds the registry and tracer and registers the service
// tier's families. It runs before the store opens and before
// initFleetops, so those layers can hang their instruments on the same
// registry; store- and fleet-stat mirrors are registered later, once
// the objects they read exist.
func (s *Server) initObs() {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:    reg,
		tracer: obs.NewTracer(),
		httpSeconds: reg.HistogramVec(httpLatencyFamily,
			"HTTP request latency by route pattern.", "route", nil),
		jobSeconds: reg.Histogram("penelope_job_seconds",
			"Job latency from submission to terminal state, cache hits included.", nil),
		queueWait: reg.Histogram("penelope_job_queue_wait_seconds",
			"Leader job wait from submission to worker pickup; feeds the Retry-After estimator.", nil),
		runSeconds: reg.HistogramVec("penelope_experiment_run_seconds",
			"Runner attempt latency by experiment id (retries observe once per attempt).", "experiment", nil),
	}
	s.obs = o

	jobCount := func(f func() int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(f())
		}
	}
	reg.CounterFunc("penelope_jobs_submitted_total", "Jobs ever submitted (including cache hits and rejected leaders).",
		func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.nextID
		})
	o.done = reg.Counter("penelope_jobs_done_total", "Jobs finished successfully.")
	o.failed = reg.Counter("penelope_jobs_failed_total", "Jobs finished with an error.")
	o.rejected = reg.Counter("penelope_jobs_rejected_total", "Submissions dropped because the queue was full.")
	o.throttled = reg.Counter("penelope_jobs_throttled_total", "Submissions rejected by per-client rate limiting.")
	o.panics = reg.Counter("penelope_jobs_panics_recovered_total", "Driver panics recovered into failed jobs.")
	o.timeouts = reg.Counter("penelope_jobs_timeouts_total", "Jobs failed by the per-job timeout.")
	o.resumed = reg.Counter("penelope_jobs_resumed_total", "Interrupted jobs resubmitted at boot.")
	reg.CounterFunc("penelope_jobs_shed_total", "Submissions dropped by progressive load shedding.",
		s.backoff.shedCount)
	o.untracked = reg.Counter("penelope_untracked_clients_total", "Requests attributed to the ~other cell because the per-client counter map was full.")
	reg.GaugeFunc("penelope_jobs_queued", "Jobs currently queued.",
		jobCount(func() int { return s.queued }))
	reg.GaugeFunc("penelope_jobs_running", "Jobs currently running.",
		jobCount(func() int { return s.running }))

	obs.RegisterBuildInfo(reg, *s.cfg.buildInfo)
	reg.CounterFunc("penelope_uptime_seconds", "Whole seconds since the server started.",
		func() uint64 { return uint64(time.Since(s.started).Seconds()) })
	reg.GaugeFunc("penelope_shed_retry_after_seconds",
		"Retry-After the shed estimator would attach to a rejected submission right now.",
		func() float64 { return s.backoff.retryAfter(s.pool.queueDepth(), s.cfg.Workers).Seconds() })

	reg.GaugeFunc("penelope_queue_depth", "Fair-pool queued tasks.",
		func() float64 { return float64(s.pool.queueDepth()) })
	reg.GaugeFunc("penelope_queue_capacity", "Fair-pool queue bound.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("penelope_workers", "Worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })

	reg.GaugeFunc("penelope_cache_entries", "Completed results resident in the in-memory result memo.",
		func() float64 { return float64(s.results.Stats().Entries) })
	reg.GaugeFuncVec("penelope_resident_bytes", "Bytes a bounded in-memory holder charges against its budget.", "holder",
		obs.GaugeCell{Value: "recordings", Read: func() float64 { return float64(experiments.RecordingBytes()) }},
		obs.GaugeCell{Value: "results", Read: func() float64 { return float64(s.results.Stats().Bytes) }})
	reg.CounterFunc("penelope_cache_hits_total", "Requests served from a completed cache entry.",
		func() uint64 { return s.results.Stats().Hits })
	reg.CounterFunc("penelope_cache_misses_total", "Requests that had to run the simulation.",
		func() uint64 { return s.results.Stats().Misses })
	reg.CounterFunc("penelope_cache_inflight_dedups_total", "Requests that attached to an already-running simulation.",
		func() uint64 { return s.results.Stats().InflightDedups })
	reg.CounterFunc("penelope_cache_evictions_total", "Completed results dropped from memory for the result memo's byte budget.",
		func() uint64 { return s.results.Stats().Evictions })

	obs.RegisterRuntimeMetrics(reg)
}

// registerStoreMetrics mirrors the disk store's JSON counters as
// Prometheus families. Called only when persistence is on, so an
// in-memory server's exposition carries no store families at all.
func (s *Server) registerStoreMetrics() {
	reg := s.obs.reg
	reg.GaugeFunc("penelope_store_entries", "Verified result payloads on disk.",
		func() float64 { return float64(s.store.Stats().Entries) })
	reg.GaugeFunc("penelope_store_bytes", "Total result payload bytes held on disk.",
		func() float64 { return float64(s.store.Stats().Bytes) })
	reg.GaugeFunc("penelope_store_degraded", "1 while the store is shedding result writes, else 0.",
		func() float64 {
			if s.store.Stats().Degraded {
				return 1
			}
			return 0
		})
	reg.CounterFunc("penelope_store_hits_total", "Store reads served from disk.",
		func() uint64 { return s.store.Stats().Hits })
	reg.CounterFunc("penelope_store_misses_total", "Store reads for keys not held.",
		func() uint64 { return s.store.Stats().Misses })
	reg.CounterFunc("penelope_store_quarantined_total", "Corrupt or truncated files set aside instead of served.",
		func() uint64 { return uint64(s.store.Stats().Quarantined) })
	reg.CounterFunc("penelope_store_evictions_total", "Results removed by the disk budget or retention policy.",
		func() uint64 { return s.store.Stats().Evictions })
	reg.CounterFunc("penelope_store_budget_refusals_total", "Result writes refused because eviction could not free enough budget.",
		func() uint64 { return s.store.Stats().BudgetRefusals })
	reg.CounterFunc("penelope_store_write_failures_total", "Result writes that failed in the filesystem.",
		func() uint64 { return s.store.Stats().WriteFailures })
}

// registerFleetMetrics mirrors the continuous-operations counters.
// Called from initFleetops once the scheduler, bus, alerter and (maybe)
// deliverer exist.
func (s *Server) registerFleetMetrics() {
	reg := s.obs.reg
	reg.GaugeFunc("penelope_fleet_populations", "Registered fleet populations.",
		func() float64 { return float64(s.sched.Stats().Populations) })
	reg.GaugeFunc("penelope_fleet_active", "Fleet populations currently active.",
		func() float64 { return float64(s.sched.Stats().Active) })
	reg.GaugeFunc("penelope_fleet_quarantined", "Fleet populations currently quarantined.",
		func() float64 { return float64(s.sched.Stats().Quarantined) })
	reg.CounterFunc("penelope_fleet_ticks_total", "Fleet scheduler ticks completed.",
		func() uint64 { return s.sched.Stats().Ticks })
	reg.CounterFunc("penelope_fleet_tick_failures_total", "Fleet ticks that failed.",
		func() uint64 { return s.sched.Stats().TickFailures })
	reg.CounterFunc("penelope_fleet_watchdog_timeouts_total", "Fleet ticks cancelled by the watchdog.",
		func() uint64 { return s.sched.Stats().WatchdogTimeouts })
	reg.CounterFunc("penelope_fleet_checkpoint_failures_total", "Fleet cursor writes refused or failed.",
		func() uint64 { return s.sched.Stats().CheckpointFailures })

	reg.GaugeFunc("penelope_fleet_p99_guardband", "Worst p99 guardband across scheduled populations.",
		func() float64 { return s.sched.Guardband().P99Guardband })
	reg.GaugeFunc("penelope_fleet_mean_guardband", "Worst mean guardband across scheduled populations.",
		func() float64 { return s.sched.Guardband().MeanGuardband })
	reg.GaugeFunc("penelope_fleet_violated_fraction", "Worst guardband-violation fraction across scheduled populations.",
		func() float64 { return s.sched.Guardband().ViolatedFraction })

	reg.GaugeFunc("penelope_bus_topics", "Event bus topics.",
		func() float64 { return float64(s.bus.Stats().Topics) })
	reg.GaugeFunc("penelope_bus_subscribers", "Event bus subscriptions.",
		func() float64 { return float64(s.bus.Stats().Subscribers) })
	reg.CounterFunc("penelope_bus_published_total", "Events published on the bus.",
		func() uint64 { return s.bus.Stats().Published })
	reg.CounterFunc("penelope_bus_dropped_total", "Events dropped by full subscriber buffers.",
		func() uint64 { return s.bus.Stats().Dropped })

	reg.CounterFunc("penelope_alerts_evaluated_total", "Alert rule evaluations.",
		func() uint64 { return s.alerter.Stats().Evaluated })
	reg.CounterFunc("penelope_alerts_fired_total", "Alerts fired.",
		func() uint64 { return s.alerter.Stats().Fired })

	if s.deliverer != nil {
		reg.GaugeFunc("penelope_alert_queue_depth", "Alert delivery queue depth.",
			func() float64 { return float64(s.deliverer.Stats().QueueDepth) })
		reg.CounterFunc("penelope_alert_delivered_total", "Alerts delivered to the sink.",
			func() uint64 { return s.deliverer.Stats().Delivered })
		reg.CounterFunc("penelope_alert_retries_total", "Alert delivery retries.",
			func() uint64 { return s.deliverer.Stats().Retries })
		reg.CounterFunc("penelope_alert_dead_lettered_total", "Alerts dead-lettered after exhausting retries.",
			func() uint64 { return s.deliverer.Stats().DeadLettered })
	}
}

// route registers a handler wrapped with the per-route latency
// histogram. The pattern string itself is the label, so cardinality is
// bounded by the route table, never by request paths.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	hist := s.obs.httpSeconds.With(pattern)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.ObserveDuration(time.Since(start))
	})
}

// handleMetrics negotiates the exposition format: Prometheus text by
// default, the original JSON payload (byte-identical to /metrics.json)
// when the client asks for application/json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.handleMetricsJSON(w, r)
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.WriteHeader(http.StatusOK)
	s.obs.reg.WritePrometheus(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics())
}

// handleJobTrace serves one job's lifecycle trace: spans from admission
// through queue wait, run, store write, to done. The trace lives with
// its job, so it answers exactly while /v1/jobs/{id} does.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job.trace.Snapshot())
}

// handleDebugTraces serves recent traces by component
// (?component=job|store|scrub|fleet|alert&n=32); without a component it
// lists the components that have recorded anything.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	component := r.URL.Query().Get("component")
	if component == "" {
		writeJSON(w, http.StatusOK, map[string]any{"components": s.obs.tracer.Components()})
		return
	}
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		n = parsed
	}
	traces := s.obs.tracer.Recent(component, n)
	if traces == nil {
		traces = []obs.TraceSnapshot{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"component": component, "traces": traces})
}

// storeInstruments builds the disk store's instrument bundle on the
// server's registry.
func (s *Server) storeInstruments() *store.Instruments {
	return store.NewInstruments(s.obs.reg, s.obs.tracer)
}

// fleetInstruments builds the fleetops instrument bundle on the
// server's registry.
func (s *Server) fleetInstruments() *fleetops.Instruments {
	return fleetops.NewInstruments(s.obs.reg, s.obs.tracer)
}

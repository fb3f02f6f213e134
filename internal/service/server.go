package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/memo"
	"penelope/internal/obs"
	"penelope/internal/obs/tsdb"
	"penelope/internal/store"
)

// runFunc executes one experiment. The default runs the experiment
// registry, routing fleet jobs through the cancellable path; tests
// substitute instrumented runners to count, gate and fail simulations.
// The context is cancelled on job timeout and on server shutdown;
// cooperative runners should return promptly. An interrupted job keeps
// nothing but its job record: the next boot recomputes it.
type runFunc func(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS). Each
	// experiment driver already fans its own sweeps out over
	// pipeline.RunBatch, so a small pool keeps the machine busy without
	// oversubscribing it.
	Workers int
	// QueueDepth bounds queued leader jobs (default 256). Submissions
	// beyond it are rejected with 503 + Retry-After rather than
	// buffered without bound, and progressive shedding starts at
	// three quarters of the depth.
	QueueDepth int

	// DataDir enables persistence: completed result payloads are
	// written through the result memo to a content-addressed disk store
	// under this directory, and served from it after an eviction or a
	// restart.
	// Lifetime jobs record themselves there when admitted, and an
	// interrupted one is recomputed at the next boot. Empty keeps the
	// server fully in-memory.
	DataDir string
	// StoreBudget bounds the disk store's result-cache payload bytes:
	// past it the least-recently-used cached results are evicted, and a
	// result write that still cannot fit is shed (the job itself
	// succeeds; only its cache entry is lost). Job records and fleet
	// sidecars are never budget-evicted or refused. 0 is unbounded.
	StoreBudget int64
	// StoreRetention evicts cached results unused for longer than this,
	// at boot and on every scrub pass. 0 keeps results forever.
	StoreRetention time.Duration
	// ScrubInterval is how often the store's background scrubber
	// re-verifies every result frame against its checksum, quarantining
	// bit rot. 0 disables the scrubber.
	ScrubInterval time.Duration
	// Rate is the per-client admission budget in submissions/second
	// (sweeps charge one token per grid point). 0 disables rate
	// limiting. Clients over budget get 429 + Retry-After.
	Rate float64
	// Burst is the per-client token bucket size (default ceil(Rate)).
	Burst int
	// JobTimeout bounds one runner attempt; a job past it fails with a
	// timeout error and its context is cancelled. 0 = unbounded.
	JobTimeout time.Duration

	// FleetTick is the default interval between scheduled fleet epoch
	// ticks for registrations that do not set their own (default 30s).
	// A failed tick retries after FleetTick/30 (doubling), and a
	// quarantined fleet parks for 10×FleetTick before its probe.
	FleetTick time.Duration
	// AlertWebhook POSTs fired fleet alerts to this URL through the
	// hardened delivery pipeline. Empty disables webhook delivery
	// (alerts still publish on the event bus).
	AlertWebhook string

	// HistoryInterval is the metric-history sampling cadence: every
	// interval the registry is sampled into the embedded time-series
	// store behind /v1/metrics/query and /dashboard (default 10s;
	// negative disables history entirely).
	HistoryInterval time.Duration
	// HistoryRetention bounds how far back persisted history blocks are
	// kept when DataDir is set (default 168h — one week).
	HistoryRetention time.Duration
	// SLORules are declarative objectives evaluated against the metric
	// history on every sampling tick; breaches fire through the event
	// bus and the alert delivery pipeline like fleet alerts.
	SLORules []fleetops.SLORule

	// In-package test seams; a zero value takes the production default.
	runner         runFunc                // nil runs the registry
	fleetBuilder   fleetops.ConfigBuilder // nil measures duty profiles like the lifetime experiment
	alertSink      fleetops.Sink          // takes precedence over AlertWebhook
	buildInfo      *obs.BuildInfo         // nil reads the embedded build metadata
	sweepRetention time.Duration          // 0 keeps a finished sweep's topic for sweepTopicRetention
}

// retainJobs bounds how many finished (done/failed) jobs stay pollable.
// The oldest are evicted first; their results stay fetchable by key
// while resident in the result memo or stored on disk, so eviction only
// limits how long /v1/jobs/{id} and its trace answer for a
// long-finished job.
const retainJobs = 4096

// sweepTopicRetention keeps a finished sweep's event topic (and its
// resume ring) alive after the "done" event so late subscribers can
// still replay it; past that the topic is dropped so a long-lived
// server's bus does not grow one topic per sweep forever.
const sweepTopicRetention = 5 * time.Minute

// resultBudget bounds the payloads the result memo keeps resident on a
// server without a store, where the memo is their only copy. At a few
// hundred bytes to ~90 KiB each, it holds every hot key of a
// read-heavy client many times over, while never-repeated jobs cycle
// through it instead of growing the heap.
const resultBudget = 64 << 20

// hotResultBudget replaces resultBudget when the disk store holds every
// completed payload: the memo keeps its single-flight role and a hot
// set (a read-heavy client's keys, a few hundred KiB), and a key
// evicted from it reads through the store and becomes resident again.
const hotResultBudget = 4 << 20

// residentResultBudget is the result memo's budget for a server
// configured with cfg.
func residentResultBudget(cfg Config) int64 {
	if cfg.DataDir != "" {
		return hotResultBudget
	}
	return resultBudget
}

// drainGrace bounds how long Close waits for the fleet scheduler to
// stop every registered population at its last persisted cursor.
const drainGrace = 5 * time.Second

// Server is the experiment service: it validates requests against the
// experiments registry, deduplicates them through the content-addressed
// result memo (backed by the disk store when DataDir is set), and
// executes memo leaders on a per-client fair worker pool with admission
// control and panic containment.
type Server struct {
	cfg     Config
	results *memo.Memo[string, []byte] // result key -> marshaled payload
	pool    *fairPool
	store   *store.Store
	limiter *rateLimiter
	backoff *backoffController
	obs     *serverObs
	logger  *slog.Logger

	bus       *fleetops.Bus
	sched     *fleetops.Scheduler
	alerter   *fleetops.Alerter
	deliverer *fleetops.Deliverer

	history   *tsdb.DB
	slo       *fleetops.SLOEngine
	started   time.Time
	historyWG sync.WaitGroup

	baseCtx   context.Context
	cancelCtx context.CancelFunc
	closeOnce sync.Once
	closed    atomic.Bool

	mu       sync.Mutex
	jobs     map[string]*Job
	terminal obs.Ring[*Job] // finished jobs, oldest first, for eviction
	jobBytes int64          // the terminal jobs' summed charges
	traced   obs.Ring[*Job] // most recently admitted jobs, for the job trace ring
	nextID   uint64

	queued  int // jobs currently in StateQueued (O(1) metrics scan)
	running int // jobs currently in StateRunning

	clients        map[string]*ClientCounters
	clientOverflow ClientCounters // aggregate beyond the tracked bound

	sweeps    map[string]*sweepTrack // in-flight sweeps, for point streaming
	sweepSeq  uint64
	fleetBoot uint64 // fleets re-registered from their records at boot
}

// sweepTrack counts a sweep's completed points so the stream can close
// with a "done" event.
type sweepTrack struct {
	total, completed, failed int
}

// ClientCounters are the per-client admission counters in /metrics.
type ClientCounters struct {
	Admitted  uint64 `json:"admitted"`
	Throttled uint64 `json:"throttled"`
}

// maxTrackedClients bounds the per-client metrics map; clients beyond
// it aggregate under "~other" so a client-id flood cannot grow the map
// without bound.
const maxTrackedClients = 64

// New builds a Server, starts its worker pool, and — when DataDir is
// set — opens the disk store, serves every result already on disk, and
// resubmits interrupted resumable jobs found there.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.sweepRetention <= 0 {
		cfg.sweepRetention = sweepTopicRetention
	}
	if cfg.HistoryInterval == 0 {
		cfg.HistoryInterval = 10 * time.Second
	}
	if cfg.HistoryRetention <= 0 {
		cfg.HistoryRetention = 168 * time.Hour
	}
	if cfg.buildInfo == nil {
		bi := obs.ReadBuildInfo()
		cfg.buildInfo = &bi
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		started:   time.Now(),
		results:   memo.New[string](residentResultBudget(cfg), func(p []byte) int64 { return int64(cap(p)) }),
		pool:      newFairPool(cfg.Workers, cfg.QueueDepth),
		limiter:   newRateLimiter(cfg.Rate, cfg.Burst),
		backoff:   newBackoffController(),
		baseCtx:   ctx,
		cancelCtx: cancel,
		jobs:      make(map[string]*Job),
		terminal:  obs.NewRing[*Job](retainJobs),
		traced:    obs.NewRing[*Job](obs.TraceRingCap),
		clients:   make(map[string]*ClientCounters),
		sweeps:    make(map[string]*sweepTrack),
	}
	s.logger = obs.Logger("service")
	s.initObs()
	if cfg.DataDir != "" {
		st, err := store.OpenConfig(store.Config{
			Dir:         cfg.DataDir,
			Budget:      cfg.StoreBudget,
			Retention:   cfg.StoreRetention,
			Instruments: s.storeInstruments(),
		})
		if err != nil {
			cancel()
			s.pool.close()
			return nil, err
		}
		st.StartScrubber(cfg.ScrubInterval)
		s.store = st
		s.registerStoreMetrics()
	}
	if s.cfg.runner == nil {
		s.cfg.runner = s.registryRunner
	}
	s.initFleetops()
	if err := s.initHistory(); err != nil {
		s.Close()
		return nil, err
	}
	s.recoverInterrupted()
	s.fleetBoot = uint64(s.sched.Recover())
	return s, nil
}

// initFleetops wires the continuous-operations layer: the event bus,
// the alert pipeline (when a sink is configured), and the self-healing
// fleet scheduler backed by the disk store's fleet records.
func (s *Server) initFleetops() {
	fleetIns := s.fleetInstruments()
	s.bus = fleetops.NewBus()
	s.bus.SetInstruments(fleetIns)
	sink := s.cfg.alertSink
	if sink == nil && s.cfg.AlertWebhook != "" {
		sink = &fleetops.WebhookSink{URL: s.cfg.AlertWebhook}
	}
	if sink != nil {
		s.deliverer = fleetops.NewDeliverer(sink, fleetIns)
	}
	s.alerter = fleetops.NewAlerter(s.bus, s.deliverer)
	var storage fleetops.Storage
	if s.store != nil {
		storage = s.store
	}
	s.sched = fleetops.NewScheduler(fleetops.Config{
		Builder:         s.cfg.fleetBuilder,
		Storage:         storage,
		Bus:             s.bus,
		Alerter:         s.alerter,
		DefaultInterval: s.cfg.FleetTick,
		Workers:         s.cfg.Workers,
		Instruments:     fleetIns,
	})
	s.registerFleetMetrics()
}

// registryRunner is the default runFunc: the experiments registry, with
// fleet jobs (lifetime, and yield derived from it) routed through
// experiments.LifetimeContext so a timeout or shutdown stops them
// mid-fleet.
func (s *Server) registryRunner(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
	if spec, _ := experiments.Lookup(experiment); !spec.Fleet {
		return experiments.Run(experiment, o)
	}
	life, err := experiments.LifetimeContext(ctx, o)
	if err != nil || experiment != "yield" {
		return life, err
	}
	return experiments.Yield(life), nil
}

// jobRecord is the record (store.KindJob, named by result key) written
// before a resumable job runs: enough to resubmit it after a crash.
// Options is the canonicalized options JSON.
type jobRecord struct {
	Key        string          `json:"key"`
	Experiment string          `json:"experiment"`
	Options    json.RawMessage `json:"options"`
	Client     string          `json:"client,omitempty"`
}

// encodeJobRecord is the record submit writes for a job it must be able
// to resume.
func encodeJobRecord(key, experiment string, o experiments.Options, client string) ([]byte, error) {
	opts, err := json.Marshal(o)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jobRecord{Key: key, Experiment: experiment, Options: opts, Client: client})
}

// decodeJobRecord decodes the job record stored under name and checks it
// as a submission would: its key must be name, and its experiment and
// options must pass canonicalRequest. It returns the canonical options.
func decodeJobRecord(name string, data []byte) (rec jobRecord, o experiments.Options, err error) {
	if err = json.Unmarshal(data, &rec); err == nil && rec.Key != name {
		err = fmt.Errorf("job record key %q stored under %q", rec.Key, name)
	}
	if err == nil {
		err = json.Unmarshal(rec.Options, &o)
	}
	if err == nil {
		_, o, err = canonicalRequest(rec.Experiment, o)
	}
	return rec, o, err
}

// removeJob deletes a finished job's record.
func (s *Server) removeJob(key string) {
	s.store.RemoveRecord(store.KindJob, key)
}

// recoverInterrupted resubmits every resumable job record found on disk
// whose result is not already stored: jobs that were queued or running
// when the previous process died. Each recomputes from epoch 0 to the
// bytes it would have produced uninterrupted. Records that do not
// decode, or that a submission would refuse (an over-limit record would
// otherwise crash every boot that replays it), are quarantined by the
// store.
func (s *Server) recoverInterrupted() {
	if s.store == nil {
		return
	}
	type resumable struct {
		jobRecord
		o experiments.Options
	}
	var recs []resumable
	s.store.Records(store.KindJob, func(r store.Record) error {
		rec, o, err := decodeJobRecord(r.Name, r.Data)
		if err == nil {
			recs = append(recs, resumable{rec, o})
		}
		return err
	})
	for _, rec := range recs {
		if s.store.Has(rec.Key) {
			s.removeJob(rec.Key)
			continue
		}
		client := rec.Client
		if client == "" {
			client = "recovery"
		}
		job, err := s.submit(client, rec.Experiment, rec.o, "")
		if err != nil {
			s.logger.Warn("resubmitting interrupted job failed", "key", rec.Key, "error", err)
			continue
		}
		if job.ResultKey != rec.Key {
			// The key schema changed across versions; the stale record
			// would otherwise be resubmitted on every boot.
			s.removeJob(rec.Key)
		}
		s.obs.resumed.Inc()
		s.logger.Info("resumed interrupted job", "experiment", rec.Experiment, "job", job.ID, "key", job.ResultKey)
	}
}

// Workers returns the worker pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// Close shuts down gracefully: new submissions fail with a
// shutting-down error, the fleet scheduler stops every registered
// population at its last persisted cursor (bounded by drainGrace),
// in-flight jobs fail at once with their contexts cancelled (a fleet
// job keeps its record, so the next boot recomputes it), queued jobs
// drain as fast failures, and pending alerts flush through the delivery
// pipeline. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.cancelCtx()
		s.sched.Close(drainGrace)
		s.pool.close()
		if s.deliverer != nil {
			s.deliverer.Close()
		}
		s.historyWG.Wait()
		if s.history != nil {
			s.history.Close()
		}
		if s.store != nil {
			s.store.Close()
		}
	})
}

// canonicalRequest validates one request against the registry and the
// request limits, and reduces its options to the fields the driver
// consumes (defaults for options-free drivers, fleet knobs dropped for
// trace-only ones), so every spelling of the same simulation shares
// one result key. It also returns the registry's copy of the id, which
// every job of the experiment can share.
func canonicalRequest(experiment string, o experiments.Options) (string, experiments.Options, error) {
	spec, ok := experiments.Lookup(experiment)
	if !ok {
		return experiment, o, fmt.Errorf("unknown experiment %q (have %s)", experiment, experiments.IDList())
	}
	o = spec.CanonicalOptions(o)
	return spec.ID, o, o.Check()
}

// submit registers a job for (experiment, o) and routes it through the
// result memo: completed results (resident, or read through from the
// disk store) finish the job immediately, in-flight ones attach a
// waiter, and new keys enqueue a leader on the fair pool under the
// submitting client. A non-empty sweepID tags the job so its
// completion streams as a sweep point.
func (s *Server) submit(client, experiment string, o experiments.Options, sweepID string) (*Job, error) {
	experiment, o, err := canonicalRequest(experiment, o)
	if err != nil {
		return nil, err
	}
	key := ResultKey(experiment, o)
	entry, leader, ready := s.results.Acquire(key)
	key = entry.Key()

	s.mu.Lock()
	s.nextID++
	job := &Job{
		ID:         "job-" + strconv.FormatUint(s.nextID, 10),
		Experiment: experiment,
		Options:    o,
		Client:     client,
		ResultKey:  key,
		State:      StateQueued,
		CacheHit:   !leader,
		SweepID:    sweepID,
		trace:      obs.StartTrace("admit"),
	}
	if !leader && !ready {
		job.trace.Phase("follow")
	}
	s.jobs[job.ID] = job
	s.traced.Push(job)
	s.queued++
	s.mu.Unlock()

	switch {
	case ready:
		// Resident: the job is done before the response is written.
		s.finish(job, nil, sourceCache)
	case !leader:
		// In-flight dedup: share the running simulation's outcome.
		go func() {
			_, err := entry.Wait()
			s.finish(job, err, sourceNone)
		}()
	default:
		// Read-through: a result persisted before an eviction or by an
		// earlier process completes the job without re-simulation.
		if payload, ok := s.result(key); ok {
			s.results.Complete(entry, payload, nil)
			s.finish(job, nil, sourceStore)
			return job, nil
		}
		if spec, _ := experiments.Lookup(experiment); s.store != nil && spec.Fleet {
			// Record the job before it runs so a crash mid-run (or while
			// queued) leaves enough on disk to resume at boot.
			rec, err := encodeJobRecord(key, experiment, o, client)
			if err == nil {
				err = s.store.PutRecord(store.KindJob, key, rec)
			}
			if err != nil {
				s.logger.Warn("recording resumable job failed", "key", key, "error", err)
			}
		}
		s.mu.Lock()
		job.trace.Phase("queue-wait")
		s.mu.Unlock()
		if err := s.pool.submit(client, func() { s.runJob(job, entry) }); err != nil {
			s.results.Complete(entry, nil, err)
			s.obs.rejected.Inc()
			s.finish(job, err, sourceNone)
			return job, err
		}
	}
	return job, nil
}

// errQueueFull and errShuttingDown distinguish a saturated or closing
// server from a bad request; both map to 503 + Retry-After.
var (
	errQueueFull    = errors.New("service: job queue full")
	errShuttingDown = errors.New("service: server shutting down")
)

// runJob executes a leader job — with timeout and panic containment —
// persists a successful payload, and completes its memo entry.
func (s *Server) runJob(job *Job, entry *memo.Entry[string, []byte]) {
	s.mu.Lock()
	job.State = StateRunning
	s.queued--
	s.running++
	wait := job.trace.Since("queue-wait")
	job.trace.Phase("run")
	s.mu.Unlock()

	// The measured wait feeds both the exported distribution and the
	// Retry-After estimator, so backpressure hints track what leaders
	// actually experienced.
	s.obs.queueWait.ObserveDuration(wait)
	s.backoff.observeWait(wait)

	start := time.Now()
	payload, err := s.runOnce(job)
	elapsed := time.Since(start)
	s.backoff.observe(elapsed)
	s.obs.runSeconds.With(job.Experiment).ObserveDuration(elapsed)

	if err == nil && s.store != nil {
		s.mu.Lock()
		job.trace.Phase("store-write")
		s.mu.Unlock()
		if perr := s.store.Put(job.ResultKey, payload); perr != nil {
			s.logger.Warn("persisting result failed", "key", job.ResultKey, "error", perr)
		}
		s.removeJob(job.ResultKey)
	}
	s.results.Complete(entry, payload, err)
	s.finish(job, err, sourceNone)
}

// runOnce executes one runner attempt under the per-job timeout and the
// server's lifetime context, recovering panics into errors so a
// misbehaving driver can never take down the process.
func (s *Server) runOnce(job *Job) ([]byte, error) {
	ctx := s.baseCtx
	cancel := func() {}
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	defer cancel()
	if s.closed.Load() {
		return nil, errShuttingDown
	}
	type outcome struct {
		payload []byte
		err     error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned attempt never wedges its goroutine
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.obs.panics.Inc()
				ch <- outcome{nil, fmt.Errorf("experiment driver panicked: %v", r)}
			}
		}()
		res, err := s.cfg.runner(ctx, job.Experiment, job.Options)
		var payload []byte
		if err == nil {
			payload, err = experiments.NewPayload(res, job.Options).Marshal()
		}
		ch <- outcome{payload, err}
	}()
	select {
	case out := <-ch:
		return out.payload, out.err
	case <-ctx.Done():
		// The runner goroutine may outlive the attempt (it is leaked
		// until it returns); ctx cancellation asks cooperative drivers
		// to stop early. Shutdown waits for nothing: an interrupted
		// fleet job's record resubmits it at the next boot.
		if s.closed.Load() {
			return nil, errShuttingDown
		}
		s.obs.timeouts.Inc()
		return nil, fmt.Errorf("service: job exceeded timeout %s", s.cfg.JobTimeout)
	}
}

// finish moves a job to its terminal state and evicts the oldest
// finished jobs beyond the retention bound. In-flight jobs are never
// evicted: their population is bounded by the queue depth and the
// attached waiters. A job that found its result complete names where
// (src); it is a cache hit. Jobs belonging to a sweep stream their
// terminal snapshot as a "point" event, and the sweep's last point
// closes the stream with a "done" event.
func (s *Server) finish(job *Job, err error, src jobSource) {
	s.mu.Lock()
	switch job.State {
	case StateQueued:
		s.queued--
	case StateRunning:
		s.running--
	}
	if src != sourceNone {
		job.source = src
		job.CacheHit = true
	}
	if err != nil {
		job.State = StateFailed
		job.Error = err.Error()
		s.obs.failed.Inc()
	} else {
		job.State = StateDone
		s.obs.done.Inc()
	}
	s.obs.jobSeconds.ObserveDuration(job.trace.Since("admit"))
	job.trace.Phase("done")
	job.trace.Finish()
	s.jobBytes += job.charge()
	if evicted, full := s.terminal.Push(job); full {
		s.jobBytes -= evicted.charge()
		delete(s.jobs, evicted.ID)
	}
	var point *Job
	var doneTrack *sweepTrack
	if job.SweepID != "" {
		snap := *job
		point = &snap
		if tr := s.sweeps[job.SweepID]; tr != nil {
			tr.completed++
			if err != nil {
				tr.failed++
			}
			if tr.completed >= tr.total {
				doneTrack = tr
				delete(s.sweeps, job.SweepID)
			}
		}
	}
	s.mu.Unlock()
	if point != nil && s.bus != nil {
		s.bus.Publish(sweepTopic(point.SweepID), "point", point)
		if doneTrack != nil {
			s.bus.Publish(sweepTopic(point.SweepID), "done", map[string]any{
				"sweep_id": point.SweepID,
				"total":    doneTrack.total,
				"failed":   doneTrack.failed,
			})
			// Expire the topic after a retention window: late
			// subscribers can still replay the ring for a while, but a
			// long-lived server does not accumulate one topic per
			// finished sweep forever. Sweep ids are unique per process,
			// so the delayed drop cannot hit a reused name.
			topic := sweepTopic(point.SweepID)
			time.AfterFunc(s.cfg.sweepRetention, func() { s.bus.Drop(topic) })
		}
	}
}

// job returns the retained job with id: an in-flight job, or a
// finished one the retention ring has not yet evicted.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// snapshot copies a job under the lock so handlers can marshal it
// without racing state transitions.
func (s *Server) snapshot(job *Job) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return *job
}

// clientCounters returns the (bounded) counter cell for a client.
// Callers hold s.mu.
func (s *Server) clientCounters(client string) *ClientCounters {
	if c, ok := s.clients[client]; ok {
		return c
	}
	if len(s.clients) >= maxTrackedClients {
		// The request is not lost — it aggregates under "~other" — but
		// its client id is, so count the fold-ins where operators can
		// see them (untracked_clients in both metrics formats).
		s.obs.untracked.Inc()
		return &s.clientOverflow
	}
	c := &ClientCounters{}
	s.clients[client] = c
	return c
}

// admitClient charges one rate-limit token per unit of work and counts
// the outcome; on refusal it returns the wait until the client's bucket
// refills.
func (s *Server) admitClient(client string, units float64) (bool, time.Duration) {
	ok := s.limiter.allow(client, units)
	s.mu.Lock()
	c := s.clientCounters(client)
	if ok {
		c.Admitted++
	} else {
		c.Throttled++
		s.obs.throttled.Inc()
	}
	s.mu.Unlock()
	if ok {
		return true, 0
	}
	return false, s.limiter.retryAfter(client, units)
}

// Metrics is the /metrics payload.
type Metrics struct {
	Jobs struct {
		Submitted       uint64 `json:"submitted"`
		Queued          uint64 `json:"queued"`
		Running         uint64 `json:"running"`
		Done            uint64 `json:"done"`
		Failed          uint64 `json:"failed"`
		Rejected        uint64 `json:"rejected"`
		Throttled       uint64 `json:"throttled"`
		Shed            uint64 `json:"shed"`
		PanicsRecovered uint64 `json:"panics_recovered"`
		Timeouts        uint64 `json:"timeouts"`
		Resumed         uint64 `json:"resumed"`
	} `json:"jobs"`
	Clients map[string]ClientCounters `json:"clients,omitempty"`
	// UntrackedClients counts requests folded into the "~other" cell
	// because the per-client map hit its bound; omitted while zero so
	// pre-existing payloads are byte-identical.
	UntrackedClients uint64       `json:"untracked_clients,omitempty"`
	Cache            memo.Stats   `json:"cache"`
	Store            *store.Stats `json:"store,omitempty"`
	Queue            QueueStatus  `json:"queue"`
	Workers          int          `json:"workers"`
	Fleet            FleetMetrics `json:"fleet"`
	// Build identifies the running binary; UptimeSeconds is whole
	// seconds since the server object was built.
	Build         obs.BuildInfo `json:"build"`
	UptimeSeconds uint64        `json:"uptime_seconds"`
	// Histograms digests every histogram family into count/sum and
	// interpolated p50/p95/p99. The HTTP latency family is deliberately
	// excluded: scrapes observe themselves, so including it would make
	// two consecutive scrapes of an otherwise idle server differ —
	// byte-stability of this payload is a pinned contract. HTTP
	// latencies remain in the Prometheus exposition and the history.
	Histograms []obs.HistogramSummary `json:"histograms,omitempty"`
	// History is the embedded time-series store's bookkeeping, present
	// whenever metric history is enabled.
	History *tsdb.Stats `json:"history,omitempty"`
	// SLO summarizes objective evaluation, present when rules are
	// configured.
	SLO *fleetops.SLOStats `json:"slo,omitempty"`
}

// FleetMetrics is the continuous-operations section of /metrics: the
// scheduler's population states, the event bus, rule evaluation, and —
// when a sink is configured — the delivery pipeline with its dead
// letters.
type FleetMetrics struct {
	Scheduler   fleetops.Stats          `json:"scheduler"`
	Quarantined []string                `json:"quarantined,omitempty"`
	ResumedBoot uint64                  `json:"resumed_at_boot,omitempty"`
	Bus         fleetops.BusStats       `json:"bus"`
	Alerts      fleetops.AlertStats     `json:"alerts"`
	Delivery    *fleetops.DeliveryStats `json:"delivery,omitempty"`
}

// QueueStatus describes queue pressure, shared by /metrics and /readyz.
type QueueStatus struct {
	Depth     int  `json:"depth"`
	Capacity  int  `json:"capacity"`
	HighWater int  `json:"high_water"`
	Degraded  bool `json:"degraded"`
}

// queueStatus snapshots queue pressure. The depth is a counter read,
// not a scan.
func (s *Server) queueStatus() QueueStatus {
	q := QueueStatus{
		Depth:     s.pool.queueDepth(),
		Capacity:  s.cfg.QueueDepth,
		HighWater: int(queueHighWater * float64(s.cfg.QueueDepth)),
	}
	q.Degraded = q.HighWater > 0 && q.Depth >= q.HighWater
	return q
}

// metrics snapshots the job, client, cache and store counters. Queued
// and running are O(1) counter reads — the retained-job map is never
// scanned.
func (s *Server) metrics() Metrics {
	var m Metrics
	s.mu.Lock()
	m.Jobs.Submitted = s.nextID
	m.Jobs.Queued = uint64(s.queued)
	m.Jobs.Running = uint64(s.running)
	if len(s.clients) > 0 {
		m.Clients = make(map[string]ClientCounters, len(s.clients)+1)
		for name, c := range s.clients {
			m.Clients[name] = *c
		}
		if s.clientOverflow != (ClientCounters{}) {
			m.Clients["~other"] = s.clientOverflow
		}
	}
	// Read under s.mu: finish bumps done/failed while holding it, so
	// the terminal counts stay consistent with queued and running.
	m.Jobs.Rejected = s.obs.rejected.Value()
	m.Jobs.Throttled = s.obs.throttled.Value()
	m.Jobs.Done = s.obs.done.Value()
	m.Jobs.Failed = s.obs.failed.Value()
	m.Jobs.PanicsRecovered = s.obs.panics.Value()
	m.Jobs.Timeouts = s.obs.timeouts.Value()
	m.Jobs.Resumed = s.obs.resumed.Value()
	m.UntrackedClients = s.obs.untracked.Value()
	s.mu.Unlock()
	m.Jobs.Shed = s.backoff.shedCount()
	m.Cache = s.results.Stats()
	if s.store != nil {
		st := s.store.Stats()
		m.Store = &st
	}
	m.Queue = s.queueStatus()
	m.Workers = s.cfg.Workers
	m.Fleet.Scheduler = s.sched.Stats()
	m.Fleet.Quarantined = s.sched.Quarantined()
	m.Fleet.Bus = s.bus.Stats()
	m.Fleet.Alerts = s.alerter.Stats()
	s.mu.Lock()
	m.Fleet.ResumedBoot = s.fleetBoot
	s.mu.Unlock()
	if s.deliverer != nil {
		d := s.deliverer.Stats()
		m.Fleet.Delivery = &d
	}
	m.Build = *s.cfg.buildInfo
	m.UptimeSeconds = uint64(time.Since(s.started).Seconds())
	for _, h := range s.obs.reg.HistogramSummaries() {
		if h.Name == httpLatencyFamily {
			continue
		}
		m.Histograms = append(m.Histograms, h)
	}
	if s.history != nil {
		hs := s.history.Stats()
		m.History = &hs
	}
	if s.slo != nil {
		st := s.slo.Stats()
		m.SLO = &st
	}
	return m
}

// Handler returns the HTTP API:
//
//	GET  /v1/experiments            list the experiment registry
//	POST /v1/jobs                   submit {"experiment": id, "options": {...}, "client": id}
//	GET  /v1/jobs                   list jobs, filterable by ?state= &client= &experiment=
//	GET  /v1/jobs/{id}              poll a job
//	GET  /v1/results/{key}          fetch a completed result payload
//	POST /v1/sweeps                 fan a job out over an Options grid
//	GET  /v1/sweeps/{id}/events     stream sweep points as SSE
//	GET  /v1/sweeps/{id}/events.ndjson  same stream as NDJSON
//	POST /v1/fleets                 register a continuously-aged population
//	GET  /v1/fleets                 list registered populations
//	GET  /v1/fleets/{name}          one population's status
//	DELETE /v1/fleets/{name}        deregister a population
//	GET  /v1/fleets/{name}/events   stream epoch/state/alert events as SSE
//	GET  /v1/fleets/{name}/events.ndjson  same stream as NDJSON
//	GET  /v1/jobs/{id}/trace        one job's lifecycle trace (admit → queue-wait → run → done)
//	GET  /v1/debug/traces           recent spans by ?component= (job, store, scrub, fleet, alert)
//	GET  /healthz                   liveness
//	GET  /readyz                    readiness (degraded above the queue high-water mark)
//	GET  /metrics                   Prometheus text exposition; JSON with Accept: application/json
//	GET  /metrics.json              job, client, cache, store and fleet counters as JSON
//	GET  /v1/metrics/names          families the metric history tracks
//	GET  /v1/metrics/query          range-query the history (?name= &from= &to= &step= &agg= &q= &label=)
//	GET  /v1/slo                    SLO rule status and counters
//	GET  /dashboard                 self-contained live fleet dashboard (no external assets)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "GET /v1/experiments", s.handleExperiments)
	s.route(mux, "POST /v1/jobs", s.handleSubmit)
	s.route(mux, "GET /v1/jobs", s.handleJobs)
	s.route(mux, "GET /v1/jobs/{id}", s.handleJob)
	s.route(mux, "GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.route(mux, "GET /v1/debug/traces", s.handleDebugTraces)
	s.route(mux, "GET /v1/results/{key}", s.handleResult)
	s.route(mux, "POST /v1/sweeps", s.handleSweep)
	s.route(mux, "GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	s.route(mux, "GET /v1/sweeps/{id}/events.ndjson", s.handleSweepEventsNDJSON)
	s.route(mux, "POST /v1/fleets", s.handleFleetRegister)
	s.route(mux, "GET /v1/fleets", s.handleFleetList)
	s.route(mux, "GET /v1/fleets/{name}", s.handleFleetGet)
	s.route(mux, "DELETE /v1/fleets/{name}", s.handleFleetDelete)
	s.route(mux, "GET /v1/fleets/{name}/events", s.handleFleetEvents)
	s.route(mux, "GET /v1/fleets/{name}/events.ndjson", s.handleFleetEventsNDJSON)
	s.route(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.route(mux, "GET /readyz", s.handleReady)
	s.route(mux, "GET /metrics", s.handleMetrics)
	s.route(mux, "GET /metrics.json", s.handleMetricsJSON)
	s.route(mux, "GET /v1/metrics/names", s.handleMetricsNames)
	s.route(mux, "GET /v1/metrics/query", s.handleMetricsQuery)
	s.route(mux, "GET /v1/slo", s.handleSLO)
	s.route(mux, "GET /dashboard", s.handleDashboard)
	return mux
}

// readiness is the /readyz payload: whether a load balancer should keep
// routing to this instance, with the queue pressure behind the answer.
type readiness struct {
	Status        string      `json:"status"`
	Queue         QueueStatus `json:"queue"`
	RejectionRate float64     `json:"rejection_rate"`
	// Fleets summarizes the scheduled populations; quarantined fleets
	// are named so an operator sees them without walking /v1/fleets.
	Fleets            fleetops.Stats `json:"fleets"`
	QuarantinedFleets []string       `json:"quarantined_fleets,omitempty"`
	// Store carries the disk-store counters when the store is shedding
	// result writes (disk budget exhausted or write failures), so the
	// degraded answer names its cause.
	Store *store.Stats `json:"store,omitempty"`
}

// handleReady reports readiness: 200 "ready" normally, 503 "degraded"
// once the queue crosses its high-water mark or the disk store starts
// shedding result writes (liveness stays green — the process is
// healthy, it just should not receive new load), and 503 "draining"
// during shutdown.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	q := s.queueStatus()
	s.mu.Lock()
	accepted := s.nextID
	s.mu.Unlock()
	refused := s.obs.rejected.Value() + s.obs.throttled.Value() + s.backoff.shedCount()
	rate := 0.0
	if total := accepted + refused; total > 0 {
		rate = float64(refused) / float64(total)
	}
	body := readiness{Status: "ready", Queue: q, RejectionRate: rate,
		Fleets: s.sched.Stats(), QuarantinedFleets: s.sched.Quarantined()}
	storeDegraded := s.store != nil && s.store.Degraded()
	if storeDegraded {
		st := s.store.Stats()
		body.Store = &st
	}
	code := http.StatusOK
	switch {
	case s.closed.Load():
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	case q.Degraded, storeDegraded:
		body.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// ExperimentInfo is one row of the GET /v1/experiments listing — the
// registry projected for clients, so they can discover experiment ids
// without reading CLI help text.
type ExperimentInfo struct {
	ID          string `json:"id"`
	Description string `json:"description"`
	OptionsFree bool   `json:"options_free"`
	// Fleet marks experiments that consume the fleet lifetime knobs;
	// for the others those knobs are canonicalized away, so a
	// fleet-axis sweep over them collapses to one cached point.
	Fleet bool `json:"fleet"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	specs := experiments.Experiments()
	infos := make([]ExperimentInfo, len(specs))
	for i, spec := range specs {
		infos[i] = ExperimentInfo{ID: spec.ID, Description: spec.Description,
			OptionsFree: spec.OptionsFree, Fleet: spec.Fleet}
	}
	writeJSON(w, http.StatusOK, map[string][]ExperimentInfo{"experiments": infos})
}

// jobRequest is the POST /v1/jobs body. Client identifies the
// submitter for fair scheduling and rate limiting; the X-Client-Id
// header takes precedence.
type jobRequest struct {
	Experiment string              `json:"experiment"`
	Options    experiments.Options `json:"options"`
	Client     string              `json:"client"`
}

// clientID resolves the submitting client: header, then body field,
// then "anonymous". Ids are capped so a hostile header cannot bloat
// the queues and counters.
func clientID(r *http.Request, field string) string {
	c := r.Header.Get("X-Client-Id")
	if c == "" {
		c = field
	}
	if c == "" {
		return "anonymous"
	}
	if len(c) > 64 {
		c = c[:64]
	}
	return c
}

// setRetryAfter attaches the backpressure hint rejected submissions
// retry against, clamped to a minimum of one second: a sub-second EWMA
// estimate would otherwise serialize as "Retry-After: 0", which
// well-behaved clients treat as "retry immediately" — the opposite of
// backpressure during a shed storm.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := retryAfterSeconds(d)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	client := clientID(r, req.Client)
	if ok, wait := s.admitClient(client, 1); !ok {
		setRetryAfter(w, wait)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("client %q over rate limit (%.3g/s)", client, s.cfg.Rate))
		return
	}
	if depth := s.pool.queueDepth(); !s.backoff.admit(depth, s.cfg.QueueDepth) {
		setRetryAfter(w, s.backoff.retryAfter(depth, s.cfg.Workers))
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("service overloaded (queue %d/%d); retry later", depth, s.cfg.QueueDepth))
		return
	}
	job, err := s.submit(client, req.Experiment, req.Options, "")
	switch {
	case errors.Is(err, errQueueFull) || errors.Is(err, errShuttingDown):
		setRetryAfter(w, s.backoff.retryAfter(s.pool.queueDepth(), s.cfg.Workers))
		writeJSON(w, http.StatusServiceUnavailable, s.snapshot(job))
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, s.snapshot(job))
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.snapshot(job))
}

// maxJobListing bounds one GET /v1/jobs response.
const maxJobListing = 1000

// handleJobs lists retained jobs, filterable by ?state=, ?client= and
// ?experiment=, newest first — the incident view: "what is queued,
// running or failed right now, and whose is it". The response reports
// the total match count alongside the (possibly truncated) page.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	if state != "" {
		switch JobState(state) {
		case StateQueued, StateRunning, StateDone, StateFailed:
		default:
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("unknown state %q (want queued, running, done or failed)", state))
			return
		}
	}
	client := r.URL.Query().Get("client")
	experiment := r.URL.Query().Get("experiment")
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	if limit > maxJobListing {
		limit = maxJobListing
	}
	s.mu.Lock()
	matched := make([]Job, 0, 64)
	for _, job := range s.jobs {
		if state != "" && job.State != JobState(state) {
			continue
		}
		if client != "" && job.Client != client {
			continue
		}
		if experiment != "" && job.Experiment != experiment {
			continue
		}
		matched = append(matched, *job)
	}
	s.mu.Unlock()
	// Job ids are "job-<n>" with n monotonic; newest first.
	sort.Slice(matched, func(i, j int) bool {
		return jobSeq(matched[i].ID) > jobSeq(matched[j].ID)
	})
	total := len(matched)
	if len(matched) > limit {
		matched = matched[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": matched, "total": total})
}

// jobSeq extracts the monotonic sequence number from a "job-<n>" id.
func jobSeq(id string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64)
	return n
}

// result returns key's completed payload: resident in the result memo,
// or read through from the disk store after an eviction or a restart.
func (s *Server) result(key string) ([]byte, bool) {
	if p, ok := s.results.Get(key); ok {
		return p, true
	}
	if s.store == nil {
		return nil, false
	}
	return s.store.Get(key)
}

// handleResult serves a completed payload by key. One read through the
// store makes the key resident again, so repeated fetches of an evicted
// key cost one disk read. Only an absent key is completed here: a key a
// submission holds, in flight or resident, is left to it.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	payload, ok := s.results.Get(key)
	if !ok && s.store != nil {
		if payload, ok = s.store.Get(key); ok {
			if entry, leader, _ := s.results.Acquire(key); leader {
				s.results.Complete(entry, payload, nil)
			}
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no completed result for key %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// sweepRequest is the POST /v1/sweeps body: the cross product of
// experiments × trace_lengths × trace_strides × populations ×
// variation_sigmas × years becomes one job per grid point. Empty axes
// default to a single default-valued point, so sweeps over trace
// options alone behave exactly as before the fleet axes existed.
type sweepRequest struct {
	Experiments  []string `json:"experiments"`
	TraceLengths []int    `json:"trace_lengths"`
	TraceStrides []int    `json:"trace_strides"`

	// Fleet axes, consumed by the lifetime/yield experiments.
	Populations     []int     `json:"populations"`
	VariationSigmas []float64 `json:"variation_sigmas"`
	Years           []float64 `json:"years"`

	Client string `json:"client"`
}

// maxSweepJobs bounds one sweep request's fan-out.
const maxSweepJobs = 1024

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Experiments) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweep needs at least one experiment"))
		return
	}
	if len(req.TraceLengths) == 0 {
		req.TraceLengths = []int{0}
	}
	if len(req.TraceStrides) == 0 {
		req.TraceStrides = []int{0}
	}
	if len(req.Populations) == 0 {
		req.Populations = []int{0}
	}
	if len(req.VariationSigmas) == 0 {
		req.VariationSigmas = []float64{0}
	}
	if len(req.Years) == 0 {
		req.Years = []float64{0}
	}
	// Bound each axis before multiplying: any axis longer than the grid
	// cap already exceeds it, and capped axes keep the product far from
	// int overflow (1024^6 < 2^63).
	n := 1
	for _, axis := range []int{
		len(req.Experiments), len(req.TraceLengths), len(req.TraceStrides),
		len(req.Populations), len(req.VariationSigmas), len(req.Years),
	} {
		if axis > maxSweepJobs {
			writeError(w, http.StatusBadRequest, fmt.Errorf("sweep axis has %d values, limit %d", axis, maxSweepJobs))
			return
		}
		n *= axis
	}
	if n > maxSweepJobs {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweep grid has %d points, limit %d", n, maxSweepJobs))
		return
	}
	// Validate the whole grid up front: a bad id or an oversized point
	// must not leave the valid points already enqueued behind a 400.
	type point struct {
		experiment string
		options    experiments.Options
	}
	points := make([]point, 0, n)
	for _, exp := range req.Experiments {
		for _, length := range req.TraceLengths {
			for _, stride := range req.TraceStrides {
				for _, pop := range req.Populations {
					for _, sigma := range req.VariationSigmas {
						for _, yrs := range req.Years {
							o := experiments.Options{
								TraceLength: length, TraceStride: stride,
								Population: pop, VariationSigma: sigma, Years: yrs,
							}
							if _, _, err := canonicalRequest(exp, o); err != nil {
								writeError(w, http.StatusBadRequest, err)
								return
							}
							points = append(points, point{exp, o})
						}
					}
				}
			}
		}
	}
	// Admission: a sweep charges one token per grid point, so sweep
	// flooding and job flooding share one budget.
	client := clientID(r, req.Client)
	if ok, wait := s.admitClient(client, float64(n)); !ok {
		setRetryAfter(w, wait)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("client %q over rate limit for a %d-point sweep", client, n))
		return
	}
	if depth := s.pool.queueDepth(); !s.backoff.admit(depth, s.cfg.QueueDepth) {
		setRetryAfter(w, s.backoff.retryAfter(depth, s.cfg.Workers))
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("service overloaded (queue %d/%d); retry later", depth, s.cfg.QueueDepth))
		return
	}
	// Allocate the sweep stream before any point runs: cache-hit points
	// complete synchronously inside submit, and their "point" events
	// must land in the topic's history ring for late subscribers.
	s.mu.Lock()
	s.sweepSeq++
	sweepID := fmt.Sprintf("sweep-%d", s.sweepSeq)
	s.sweeps[sweepID] = &sweepTrack{total: n}
	s.mu.Unlock()
	s.bus.Touch(sweepTopic(sweepID))
	jobs := make([]Job, 0, len(points))
	for _, pt := range points {
		// A validated point can only be refused for a full queue or a
		// shutdown; its snapshot reports the failure and the rest of
		// the grid still enqueues.
		job, _ := s.submit(client, pt.experiment, pt.options, sweepID)
		jobs = append(jobs, s.snapshot(job))
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"sweep_id": sweepID,
		"events":   "/v1/sweeps/" + sweepID + "/events",
		"jobs":     jobs,
	})
}

// decodeStrict parses a JSON body, rejecting unknown fields and
// trailing garbage so malformed Options fail loudly with a 400.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("bad request body: trailing data")
	}
	return nil
}

// writeJSON writes v as indented JSON plus a newline, the bytes a
// json.Encoder with SetIndent("", "  ") writes, indented in one pass.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body := append(experiments.AppendIndent(make([]byte, 0, 2*len(b)+1), b), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

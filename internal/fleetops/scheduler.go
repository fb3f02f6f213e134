package fleetops

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"penelope/internal/lifetime"
	"penelope/internal/mix"
	"penelope/internal/obs"
	"penelope/internal/store"
)

// State is a population's scheduler state.
type State string

const (
	// StateActive populations tick on their interval.
	StateActive State = "active"
	// StateQuarantined populations failed maxFailures consecutive
	// ticks; the scheduler parks them for ten default intervals, then
	// probes — a successful probe returns them to active. Other
	// populations are unaffected.
	StateQuarantined State = "quarantined"
	// StateDone populations finished their schedule.
	StateDone State = "done"
)

// FleetTopic names the bus topic carrying a fleet's events.
func FleetTopic(name string) string { return "fleet/" + name }

// ErrExists rejects a Register for a name already scheduled; the HTTP
// layer maps it to 409.
var ErrExists = errors.New("fleetops: fleet already registered")

// ErrPersist rejects a Register whose registration record could not be
// written: nothing was scheduled, because a fleet that cannot survive
// a restart must not be reported as registered. The HTTP layer maps it
// to 503.
var ErrPersist = errors.New("fleetops: persisting fleet registration failed")

// maxFailures consecutive tick failures quarantine a population.
const maxFailures = 3

// Config configures the scheduler.
type Config struct {
	// Builder turns registrations into engine configs. Nil uses
	// ExperimentBuilder.
	Builder ConfigBuilder
	// Storage persists registration sidecars and checkpoints; nil keeps
	// everything in memory.
	Storage Storage
	// Bus receives epoch/state events; nil disables publishing.
	Bus *Bus
	// Alerter evaluates alert rules per epoch; nil disables alerting.
	Alerter *Alerter
	// DefaultInterval spaces ticks for registrations that do not set
	// one (default 30s). A failed tick retries after DefaultInterval/30,
	// doubled per consecutive failure plus up to 50% jitter keyed on the
	// population name; a quarantined population parks for ten intervals
	// before a probation probe — 1s and 5m at the default.
	DefaultInterval time.Duration
	// TickTimeout is the watchdog deadline: a tick still running after
	// this is cancelled, counted as a failure, and its engine abandoned
	// in favor of the last good snapshot (default 60s).
	TickTimeout time.Duration
	// Workers bounds each engine step's internal fan-out (<=0 uses
	// GOMAXPROCS).
	Workers int
	// Instruments, when set, records tick latency, aging throughput,
	// and tick spans. Nil costs nothing.
	Instruments *Instruments
	// Logger receives the scheduler's structured log records; nil uses
	// the process default tagged with component=fleetops.
	Logger *slog.Logger
}

// population is one registered fleet's scheduler state. All mutable
// fields are guarded by the scheduler mutex; the engines themselves are
// only touched by the population's (single) in-flight tick goroutine.
type population struct {
	reg     Registration
	state   State
	removed bool

	// ctx scopes the population's loop and ticks; Deregister and Close
	// cancel it. done closes when the loop has exited.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	run      *lifetime.Driver // the fleet's one engine; nil until built or restored
	snapshot []byte           // last good checkpoint bytes; source of truth for persistence
	resumed  bool             // restored from a storage checkpoint at least once
	// abandoned answers for the tick the watchdog gave up on, until it
	// does; only the population's loop goroutine touches it.
	abandoned chan tickResult

	epoch       int
	totalEpochs int
	lastStats   *lifetime.EpochStats
	failures    int // consecutive
	// restartCause is why a checkpoint record was quarantined and the
	// fleet rebuilt from its registration, held until a successful tick
	// announces the restart: the record is gone once quarantined, so a
	// failed first tick must not lose the cause.
	restartCause error
	lastErr      string

	ticks, tickFailures, watchdogTimeouts, quarantines uint64
	lastTickStart                                      time.Time
}

// Status is the externally visible state of one population.
type Status struct {
	Name                string               `json:"name"`
	Fleet               string               `json:"fleet"`
	State               State                `json:"state"`
	Epoch               int                  `json:"epoch"`
	TotalEpochs         int                  `json:"total_epochs,omitempty"`
	Resumed             bool                 `json:"resumed,omitempty"`
	Interval            Duration             `json:"interval"`
	Ticks               uint64               `json:"ticks"`
	TickFailures        uint64               `json:"tick_failures,omitempty"`
	WatchdogTimeouts    uint64               `json:"watchdog_timeouts,omitempty"`
	Quarantines         uint64               `json:"quarantines,omitempty"`
	ConsecutiveFailures int                  `json:"consecutive_failures,omitempty"`
	LastError           string               `json:"last_error,omitempty"`
	Alerts              AlertRules           `json:"alerts,omitempty"`
	Last                *lifetime.EpochStats `json:"last,omitempty"`
}

// Stats is the scheduler section of /metrics.
type Stats struct {
	Populations      int    `json:"populations"`
	Active           int    `json:"active"`
	Quarantined      int    `json:"quarantined"`
	Done             int    `json:"done"`
	Resumed          int    `json:"resumed"`
	Ticks            uint64 `json:"ticks"`
	TickFailures     uint64 `json:"tick_failures"`
	WatchdogTimeouts uint64 `json:"watchdog_timeouts"`
	Quarantines      uint64 `json:"quarantines"`
	// CheckpointFailures counts fleet checkpoint writes the storage
	// refused or failed. The fleet keeps aging in memory — the failure
	// only widens how far a restart would rewind it, which is exactly
	// why it must be visible rather than swallowed.
	CheckpointFailures uint64 `json:"checkpoint_failures"`
}

// Scheduler keeps registered populations aging. Each population runs
// its own goroutine, so a failing, hung, or quarantined fleet never
// stalls the others.
type Scheduler struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	retry mix.Backoff // failed-tick retry delays; Cap is the quarantine cooldown

	mu       sync.Mutex
	pops     map[string]*population
	closed   bool
	ckptFail uint64 // fleet checkpoint writes refused or failed
}

// NewScheduler builds a scheduler; populations are added with Register.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Builder == nil {
		cfg.Builder = ExperimentBuilder
	}
	if cfg.DefaultInterval <= 0 {
		cfg.DefaultInterval = 30 * time.Second
	}
	if cfg.TickTimeout <= 0 {
		cfg.TickTimeout = 60 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Logger("fleetops")
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Scheduler{cfg: cfg, ctx: ctx, cancel: cancel, pops: make(map[string]*population),
		retry: mix.Backoff{Base: cfg.DefaultInterval / 30, Cap: 10 * cfg.DefaultInterval}}
}

// Register validates and admits a population, persists its
// registration record, and starts its tick loop (first tick runs
// immediately). A registration that cannot be persisted is refused
// with ErrPersist and nothing is scheduled. Expensive, fallible work —
// engine construction, checkpoint restore — happens inside the first
// tick, under the same retry/quarantine protection as any other tick.
func (s *Scheduler) Register(reg Registration) (Status, error) {
	return s.register(reg, true)
}

// Recover re-registers every fleet registration record in storage, so
// a restarted process resumes each scheduled population from its last
// checkpointed epoch (the restore happens inside its first tick). A
// record that does not decode or validate — one past the request
// limits would exhaust memory on every boot — is quarantined by the
// store. It returns how many populations it resumed.
func (s *Scheduler) Recover() int {
	if s.cfg.Storage == nil {
		return 0
	}
	var regs []Registration
	s.cfg.Storage.Records(store.KindFleet, func(rec store.Record) error {
		var reg Registration
		err := json.Unmarshal(rec.Data, &reg)
		if err == nil && reg.Name != rec.Name {
			err = fmt.Errorf("fleetops: registration %q stored under %q", reg.Name, rec.Name)
		}
		if err == nil {
			err = reg.Validate()
		}
		if err == nil {
			regs = append(regs, reg)
		}
		return err
	})
	n := 0
	for _, reg := range regs {
		if _, err := s.register(reg, false); err != nil {
			s.cfg.Logger.Warn("re-registering fleet failed", "fleet", reg.Name, "error", err)
			continue
		}
		n++
		s.cfg.Logger.Info("resumed fleet from its registration record", "fleet", reg.Name)
	}
	return n
}

// register admits a population; persist writes its registration
// record first (Recover re-admits records already on disk).
func (s *Scheduler) register(reg Registration, persist bool) (Status, error) {
	if err := reg.Validate(); err != nil {
		return Status{}, err
	}
	if reg.EpochsPerTick == 0 {
		reg.EpochsPerTick = 1
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("fleetops: scheduler is closed")
	}
	if _, ok := s.pops[reg.Name]; ok {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("fleet %q: %w", reg.Name, ErrExists)
	}
	p := &population{reg: reg, state: StateActive, done: make(chan struct{})}
	p.ctx, p.cancel = context.WithCancel(s.ctx)
	s.pops[reg.Name] = p // reserves the name while the record is written
	s.wg.Add(1)
	s.mu.Unlock()

	if persist && s.cfg.Storage != nil {
		data, err := json.Marshal(reg)
		if err == nil {
			err = s.cfg.Storage.PutRecord(store.KindFleet, reg.Name, data)
		}
		if err != nil {
			s.mu.Lock()
			delete(s.pops, reg.Name)
			s.mu.Unlock()
			p.cancel()
			close(p.done)
			s.wg.Done()
			return Status{}, fmt.Errorf("fleet %q: %w: %v", reg.Name, ErrPersist, err)
		}
	}
	if s.cfg.Bus != nil {
		s.cfg.Bus.Touch(FleetTopic(reg.Name))
		s.cfg.Bus.Publish(FleetTopic(reg.Name), "state",
			StateEvent{Fleet: reg.Name, State: StateActive, Reason: "registered"})
	}
	go s.loop(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(p), nil
}

// StateEvent is the payload of "state" bus events.
type StateEvent struct {
	Fleet  string `json:"fleet"`
	State  State  `json:"state"`
	Epoch  int    `json:"epoch"`
	Reason string `json:"reason,omitempty"`
}

// EpochEvent is the payload of "epoch" bus events: the fleet name plus
// the epoch's aggregate row.
type EpochEvent struct {
	Fleet string `json:"fleet"`
	lifetime.EpochStats
}

// Deregister stops a population, removes its records, and ends its
// event stream. It cancels the in-flight tick and waits for the loop
// to exit first, so no late tick can rewrite the removed checkpoint
// (a re-registration would resume it) or re-create the dropped topic.
func (s *Scheduler) Deregister(name string) error {
	s.mu.Lock()
	p, ok := s.pops[name]
	if !ok || p.removed {
		s.mu.Unlock()
		return fmt.Errorf("fleetops: fleet %q not registered", name)
	}
	p.removed = true
	s.mu.Unlock()
	p.cancel()
	<-p.done
	if s.cfg.Storage != nil {
		s.cfg.Storage.RemoveRecord(store.KindFleet, name)
		s.cfg.Storage.RemoveRecord(store.KindFleetCheckpoint, name)
	}
	if s.cfg.Bus != nil {
		s.cfg.Bus.Drop(FleetTopic(name))
	}
	s.mu.Lock()
	if s.pops[name] == p {
		delete(s.pops, name)
	}
	s.mu.Unlock()
	return nil
}

// Get returns one population's status.
func (s *Scheduler) Get(name string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pops[name]
	if !ok {
		return Status{}, false
	}
	return s.statusLocked(p), true
}

// List returns every population's status, sorted by name.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.pops))
	for _, p := range s.pops {
		out = append(out, s.statusLocked(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Quarantined returns the names of quarantined populations, sorted.
func (s *Scheduler) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, p := range s.pops {
		if p.state == StateQuarantined {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Stats returns aggregate scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Populations: len(s.pops)}
	for _, p := range s.pops {
		switch p.state {
		case StateActive:
			st.Active++
		case StateQuarantined:
			st.Quarantined++
		case StateDone:
			st.Done++
		}
		if p.resumed {
			st.Resumed++
		}
		st.Ticks += p.ticks
		st.TickFailures += p.tickFailures
		st.WatchdogTimeouts += p.watchdogTimeouts
		st.Quarantines += p.quarantines
	}
	st.CheckpointFailures = s.ckptFail
	return st
}

// GuardbandSummary is the fleet-wide aging picture: the worst value of
// each guardband statistic across every population with at least one
// completed epoch. Fleets reports how many populations contributed.
type GuardbandSummary struct {
	Fleets           int     `json:"fleets"`
	P99Guardband     float64 `json:"p99_guardband"`
	MeanGuardband    float64 `json:"mean_guardband"`
	ViolatedFraction float64 `json:"violated_fraction"`
}

// Guardband aggregates the latest epoch rows into the worst-case
// summary the guardband gauges (and the SLO slope rules watching them)
// export. Populations that have not completed an epoch yet contribute
// nothing.
func (s *Scheduler) Guardband() GuardbandSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out GuardbandSummary
	for _, p := range s.pops {
		if p.removed || p.lastStats == nil {
			continue
		}
		row := p.lastStats
		out.Fleets++
		if row.P99Guardband > out.P99Guardband {
			out.P99Guardband = row.P99Guardband
		}
		if row.MeanGuardband > out.MeanGuardband {
			out.MeanGuardband = row.MeanGuardband
		}
		if row.ViolatedFraction > out.ViolatedFraction {
			out.ViolatedFraction = row.ViolatedFraction
		}
	}
	return out
}

func (s *Scheduler) statusLocked(p *population) Status {
	fleet := p.reg.Fleet
	if fleet == "" {
		fleet = "penelope"
	}
	interval := p.reg.Interval
	if interval <= 0 {
		interval = Duration(s.cfg.DefaultInterval)
	}
	st := Status{
		Name:                p.reg.Name,
		Fleet:               fleet,
		State:               p.state,
		Epoch:               p.epoch,
		TotalEpochs:         p.totalEpochs,
		Resumed:             p.resumed,
		Interval:            interval,
		Ticks:               p.ticks,
		TickFailures:        p.tickFailures,
		WatchdogTimeouts:    p.watchdogTimeouts,
		Quarantines:         p.quarantines,
		ConsecutiveFailures: p.failures,
		LastError:           p.lastErr,
		Alerts:              p.reg.Alerts,
	}
	if p.lastStats != nil {
		row := *p.lastStats
		st.Last = &row
	}
	return st
}

// loop is one population's life: sleep, tick, repeat — with backoff on
// failure, a long park when quarantined, and exit when done or removed.
func (s *Scheduler) loop(p *population) {
	defer s.wg.Done()
	defer close(p.done)
	first := true
	for {
		d, exit := s.nextDelay(p, first)
		first = false
		if exit {
			return
		}
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-p.ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		if p.ctx.Err() != nil { // deregistered or shut down while asleep
			return
		}
		s.tick(p)
	}
}

// nextDelay picks the next sleep for a population: immediately for the
// first tick, exponential backoff after failures, the quarantine
// cooldown when parked, otherwise the registration interval (floored by
// its cooldown since the last tick start).
func (s *Scheduler) nextDelay(p *population, first bool) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.removed || p.state == StateDone {
		return 0, true
	}
	if first {
		return 0, false
	}
	if p.state == StateQuarantined {
		return s.retry.Cap, false
	}
	if p.failures > 0 {
		return s.retry.Delay(p.reg.Name, p.failures-1), false
	}
	d := time.Duration(p.reg.Interval)
	if d <= 0 {
		d = s.cfg.DefaultInterval
	}
	if cd := time.Duration(p.reg.Cooldown); cd > 0 && !p.lastTickStart.IsZero() {
		if until := time.Until(p.lastTickStart.Add(cd)); until > d {
			d = until
		}
	}
	return d, false
}

// tickResult carries one tick's outcome out of its goroutine.
type tickResult struct {
	run      *lifetime.Driver
	rows     []lifetime.EpochStats
	snapshot []byte
	err      error
}

// tick runs one tick under the watchdog: the tick body runs in its own
// goroutine with a deadline; if the deadline passes, the tick is
// abandoned (its engine with it — the next tick reloads from the last
// good snapshot) and counted as a failure. A fleet has at most one
// abandoned tick: while it has not answered, later ticks wait on it
// under their own deadlines instead of starting another goroutine, so a
// Builder or checkpoint read that never returns holds one goroutine,
// not one per retry. Its late result is discarded.
func (s *Scheduler) tick(p *population) {
	start := time.Now()
	s.mu.Lock()
	p.lastTickStart = start
	name := p.reg.Name
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(p.ctx, s.cfg.TickTimeout)
	defer cancel()
	if p.abandoned != nil {
		select {
		case <-p.abandoned:
			// The abandoned tick answered at last; its engine was
			// already dropped.
			p.abandoned = nil
		case <-ctx.Done():
			s.tickExpired(p, name, start)
			return
		}
	}
	ch := make(chan tickResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- tickResult{err: fmt.Errorf("tick panicked: %v", r)}
			}
		}()
		ch <- s.runTick(ctx, p)
	}()
	select {
	case res := <-ch:
		if res.err != nil {
			s.cfg.Instruments.observeTick(name, start, 0, 0, res.err)
			s.tickFailed(p, res.err)
		} else {
			s.cfg.Instruments.observeTick(name, start, len(res.rows), res.run.Engines[0].Config().Population, nil)
			s.tickOK(p, res)
		}
	case <-ctx.Done():
		p.abandoned = ch
		s.tickExpired(p, name, start)
	}
}

// tickExpired handles a tick whose context ended before it answered.
func (s *Scheduler) tickExpired(p *population, name string, start time.Time) {
	if p.ctx.Err() != nil {
		// Shutdown or deregistration: abandon the in-flight tick; the
		// last good snapshot is what persists.
		return
	}
	s.cfg.Instruments.observeTick(name, start, 0, 0, fmt.Errorf("watchdog: tick exceeded %s deadline", s.cfg.TickTimeout))
	s.watchdogFired(p)
}

// runTick executes the tick body in the watchdog goroutine: obtain the
// fleet's driver (restore or build — both fallible, both under the same
// protection), advance it EpochsPerTick epochs, and snapshot the result.
// A checkpoint that cannot resume the registration
// (lifetime.ErrBadCheckpoint) is quarantined and the engine rebuilt, the
// rule lifetime jobs follow too; the cause is recorded on the population
// for tickOK to announce. Bar that, it never touches scheduler state or
// storage writes; results are applied by tickOK/tickFailed on the loop
// goroutine.
func (s *Scheduler) runTick(ctx context.Context, p *population) tickResult {
	s.mu.Lock()
	run := p.run
	snap := p.snapshot
	reg := p.reg
	s.mu.Unlock()

	if run == nil {
		var err error
		if snap == nil && s.cfg.Storage != nil {
			if snap, err = s.cfg.Storage.ReadRecord(store.KindFleetCheckpoint, reg.Name); err != nil {
				return tickResult{err: fmt.Errorf("reading checkpoint: %w", err)}
			}
		}
		cfg, err := s.cfg.Builder(reg)
		if err != nil {
			return tickResult{err: fmt.Errorf("building engine config: %w", err)}
		}
		var saved [][]byte
		if snap != nil {
			saved = [][]byte{snap}
		}
		run, err = lifetime.Open(saved, cfg)
		if errors.Is(err, lifetime.ErrBadCheckpoint) {
			// It would fail every retry and probe alike: set it aside
			// and start over.
			if s.cfg.Storage != nil {
				s.cfg.Storage.QuarantineRecord(store.KindFleetCheckpoint, reg.Name, err)
			}
			s.mu.Lock()
			p.restartCause = err
			s.mu.Unlock()
			run, err = lifetime.Open(nil, cfg)
		}
		if err != nil {
			return tickResult{err: fmt.Errorf("building engine: %w", err)}
		}
		run.Workers = s.cfg.Workers
	}

	eng := run.Engines[0]
	prev := eng.Epoch()
	if _, err := run.Run(ctx, reg.EpochsPerTick, 0); err != nil {
		return tickResult{err: err}
	}
	snaps, err := run.Snapshots()
	if err != nil {
		return tickResult{err: err}
	}
	rows := append([]lifetime.EpochStats(nil), eng.Stats()[prev:eng.Epoch()]...)
	return tickResult{run: run, rows: rows, snapshot: snaps[0]}
}

// tickOK applies a successful tick: adopt the engine and snapshot,
// clear failures (announcing recovery if the population was
// quarantined), persist the checkpoint, publish epoch events, and
// evaluate alert rules.
func (s *Scheduler) tickOK(p *population, res tickResult) {
	eng := res.run.Engines[0]
	s.mu.Lock()
	var prevVTH []float64
	restartCause := p.restartCause
	p.restartCause = nil
	if restartCause != nil {
		p.lastStats = nil // rows of the abandoned run are no baseline
	}
	if prev := eng.Epoch() - len(res.rows); p.lastStats == nil && prev > 0 {
		// A restored checkpoint's last row re-seeds the duty-deviation
		// detector's baseline (p.lastStats lives only in memory); from
		// zero, the first resumed tick would read the accumulated shift
		// as one epoch and fire a false wearout-attack alert.
		row := eng.Stats()[prev-1]
		p.lastStats = &row
	}
	if p.lastStats != nil {
		prevVTH = p.lastStats.MeanVTHShift
	}
	wasQuarantined := p.state == StateQuarantined
	p.run = res.run
	p.snapshot = res.snapshot
	p.resumed = p.resumed || res.run.Resumed
	p.ticks++
	p.failures = 0
	p.lastErr = ""
	p.epoch = eng.Epoch()
	p.totalEpochs = eng.TotalEpochs()
	if n := len(res.rows); n > 0 {
		row := res.rows[n-1]
		p.lastStats = &row
	}
	done := eng.Done()
	if done {
		p.state = StateDone
	} else {
		p.state = StateActive
	}
	reg := p.reg
	epoch := p.epoch
	s.mu.Unlock()

	if s.cfg.Storage != nil {
		if err := s.cfg.Storage.PutRecord(store.KindFleetCheckpoint, reg.Name, res.snapshot); err != nil {
			s.noteCheckpointFailure(reg.Name, err)
		}
	}
	if restartCause != nil {
		s.cfg.Logger.Warn("quarantined a fleet checkpoint that cannot resume; restarted from the registration",
			"fleet", reg.Name, "error", restartCause)
	}
	if s.cfg.Bus != nil {
		if restartCause != nil {
			s.cfg.Bus.Publish(FleetTopic(reg.Name), "state",
				StateEvent{Fleet: reg.Name, State: StateActive,
					Reason: fmt.Sprintf("checkpoint quarantined, restarted from epoch 0: %v", restartCause)})
		}
		if wasQuarantined {
			s.cfg.Bus.Publish(FleetTopic(reg.Name), "state",
				StateEvent{Fleet: reg.Name, State: StateActive, Epoch: epoch, Reason: "recovered from quarantine"})
		}
		for _, row := range res.rows {
			s.cfg.Bus.Publish(FleetTopic(reg.Name), "epoch", EpochEvent{Fleet: reg.Name, EpochStats: row})
		}
	}
	if s.cfg.Alerter != nil && reg.Alerts.Enabled() {
		var det *DeviationDetector
		if reg.Alerts.DutyTolerance > 0 {
			det = NewDeviationDetector(eng.Config(), reg.Alerts.DutyTolerance)
		}
		for _, row := range res.rows {
			s.cfg.Alerter.Observe(reg.Name, reg.Alerts, det, prevVTH, row)
			prevVTH = row.MeanVTHShift
		}
	}
	if done && s.cfg.Bus != nil {
		s.cfg.Bus.Publish(FleetTopic(reg.Name), "state",
			StateEvent{Fleet: reg.Name, State: StateDone, Epoch: epoch, Reason: "schedule complete"})
	}
}

// tickFailed counts a consecutive failure and quarantines the
// population once it reaches maxFailures.
func (s *Scheduler) tickFailed(p *population, err error) {
	s.mu.Lock()
	p.ticks++
	p.tickFailures++
	p.failures++
	p.lastErr = err.Error()
	quarantine := p.failures >= maxFailures && p.state == StateActive
	if quarantine {
		p.state = StateQuarantined
		p.quarantines++
	}
	reg := p.reg
	epoch := p.epoch
	s.mu.Unlock()
	if quarantine && s.cfg.Bus != nil {
		s.cfg.Bus.Publish(FleetTopic(reg.Name), "state",
			StateEvent{Fleet: reg.Name, State: StateQuarantined, Epoch: epoch,
				Reason: fmt.Sprintf("%d consecutive tick failures: %v", maxFailures, err)})
	}
}

// watchdogFired abandons a tick that blew its deadline: the engine is
// dropped (the abandoned goroutine may still be mutating it), so the
// next tick reloads from the last good snapshot, and the timeout counts
// toward quarantine like any other failure.
func (s *Scheduler) watchdogFired(p *population) {
	s.mu.Lock()
	p.run = nil
	p.watchdogTimeouts++
	s.mu.Unlock()
	s.tickFailed(p, fmt.Errorf("watchdog: tick exceeded %s deadline", s.cfg.TickTimeout))
	if s.cfg.Bus != nil {
		s.mu.Lock()
		reg, epoch, state := p.reg, p.epoch, p.state
		s.mu.Unlock()
		if state != StateQuarantined { // quarantine transition already announced
			s.cfg.Bus.Publish(FleetTopic(reg.Name), "state",
				StateEvent{Fleet: reg.Name, State: state, Epoch: epoch, Reason: "watchdog cancelled a stalled tick"})
		}
	}
}

// Close stops every loop and persists each population's last good
// checkpoint, bounded by grace — SIGTERM mid-tick still leaves every
// registered population resumable from its last completed tick, even
// when that tick's own checkpoint write failed.
func (s *Scheduler) Close(grace time.Duration) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if grace <= 0 {
		grace = 5 * time.Second
	}
	select {
	case <-done:
	case <-time.After(grace):
	}
	if s.cfg.Storage == nil {
		return
	}
	s.mu.Lock()
	snaps := make(map[string][]byte)
	for name, p := range s.pops {
		if p.snapshot != nil && !p.removed {
			snaps[name] = p.snapshot
		}
	}
	s.mu.Unlock()
	for name, snap := range snaps {
		if err := s.cfg.Storage.PutRecord(store.KindFleetCheckpoint, name, snap); err != nil {
			s.noteCheckpointFailure(name, err)
		}
	}
}

// noteCheckpointFailure counts and logs a failed fleet checkpoint
// write: the population keeps aging in memory, but a restart would
// rewind it to the last checkpoint that did land.
func (s *Scheduler) noteCheckpointFailure(name string, err error) {
	s.mu.Lock()
	s.ckptFail++
	first := s.ckptFail == 1
	s.mu.Unlock()
	if first {
		s.cfg.Logger.Warn("fleet checkpoint write failed (counted; logged once)", "fleet", name, "error", err)
	}
}

package fleetops

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
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

// catchUpWork bounds the chip-epochs one tick replays while a rebuilt
// engine catches up to its fleet's cursor: ~1 s of engine compute, so a
// long schedule replays over several ticks instead of holding the
// watchdog.
const catchUpWork = 1 << 26

// Config configures the scheduler.
type Config struct {
	// Builder turns registrations into engine configs. Nil uses
	// ExperimentBuilder.
	Builder ConfigBuilder
	// Storage persists each fleet's record, its registration and epoch
	// cursor; nil keeps everything in memory.
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
	// Workers bounds each engine step's internal fan-out (<=0 uses
	// GOMAXPROCS).
	Workers int
	// Instruments, when set, records tick latency, aging throughput,
	// and tick spans. Nil costs nothing.
	Instruments *Instruments

	// tickTimeout is the watchdog deadline: a tick still running after
	// this is cancelled, counted as a failure, and its engine abandoned;
	// the next tick rebuilds it and replays it to the cursor. Zero
	// takes defaultTickTimeout; only in-package tests shorten it.
	tickTimeout time.Duration
}

// defaultTickTimeout is the watchdog deadline of a production tick.
const defaultTickTimeout = 60 * time.Second

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

	run     *lifetime.Driver // the fleet's one engine; nil until built, after a failed tick, and once done
	cursor  int              // last epoch published; a rebuilt engine replays to it in silence
	resumed bool             // recovered from a persisted cursor past epoch 0
	// abandoned answers for the tick the watchdog gave up on, until it
	// does; only the population's loop goroutine touches it.
	abandoned chan tickResult

	epoch       int // the engine's, which trails cursor while it replays
	totalEpochs int
	lastStats   *lifetime.EpochStats
	failures    int // consecutive
	lastErr     string

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
	// CheckpointFailures counts fleet cursor writes the storage refused
	// or failed. The fleet keeps aging and publishing — the failure only
	// means a restart would resume from an older cursor and publish those
	// epochs again, which is exactly why it must be visible rather than
	// swallowed.
	CheckpointFailures uint64 `json:"checkpoint_failures"`
}

// Scheduler keeps registered populations aging. Each population runs
// its own goroutine, so a failing, hung, or quarantined fleet never
// stalls the others.
type Scheduler struct {
	cfg    Config
	logger *slog.Logger
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	retry mix.Backoff // failed-tick retry delays; Cap is the quarantine cooldown

	ckptFail atomic.Uint64 // fleet cursor writes refused or failed

	mu     sync.Mutex
	pops   map[string]*population
	closed bool
}

// NewScheduler builds a scheduler; populations are added with Register.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Builder == nil {
		cfg.Builder = ExperimentBuilder
	}
	if cfg.DefaultInterval <= 0 {
		cfg.DefaultInterval = 30 * time.Second
	}
	if cfg.tickTimeout <= 0 {
		cfg.tickTimeout = defaultTickTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Scheduler{cfg: cfg, logger: obs.Logger("fleetops"), ctx: ctx, cancel: cancel, pops: make(map[string]*population),
		retry: mix.Backoff{Base: cfg.DefaultInterval / 30, Cap: 10 * cfg.DefaultInterval}}
}

// Register validates and admits a population at epoch 0, persists its
// record, and starts its tick loop (first tick runs immediately). A
// registration that cannot be persisted is refused with ErrPersist and
// nothing is scheduled. Expensive, fallible work — engine construction
// — happens inside the first tick, under the same retry/quarantine
// protection as any other tick.
func (s *Scheduler) Register(reg Registration) (Status, error) {
	return s.register(reg, 0, true)
}

// fleetRecord is a fleet's one durable record (store.KindFleet): its
// registration plus its cursor, the last epoch it published. A fleet's
// state at an epoch is a pure function of its registration and that
// epoch, so the cursor is all a restart needs. Records written before
// fleets kept cursors have none, hence the pointer.
type fleetRecord struct {
	Registration
	Cursor *int `json:"cursor"`
}

// persist writes a fleet's record with its cursor.
func (s *Scheduler) persist(reg Registration, cursor int) error {
	data, err := json.Marshal(fleetRecord{reg, &cursor})
	if err != nil {
		return err
	}
	return s.cfg.Storage.PutRecord(store.KindFleet, reg.Name, data)
}

// Recover re-registers every fleet record in storage at its cursor, so
// a restarted process rebuilds each population and replays it, in
// silence, to the last epoch it published (inside its first ticks). A
// record that does not decode or validate — one past the request
// limits would exhaust memory on every boot, and a negative cursor
// names no epoch — is quarantined by the store. It returns how many
// populations it resumed.
func (s *Scheduler) Recover() int {
	if s.cfg.Storage == nil {
		return 0
	}
	var recs []fleetRecord
	s.cfg.Storage.Records(store.KindFleet, func(rec store.Record) error {
		var fr fleetRecord
		err := json.Unmarshal(rec.Data, &fr)
		if err == nil && fr.Name != rec.Name {
			err = fmt.Errorf("fleetops: registration %q stored under %q", fr.Name, rec.Name)
		}
		if err == nil && fr.Cursor != nil && *fr.Cursor < 0 {
			err = fmt.Errorf("fleetops: fleet %q recorded at negative epoch %d", fr.Name, *fr.Cursor)
		}
		if err == nil {
			err = fr.Validate()
		}
		if err == nil {
			recs = append(recs, fr)
		}
		return err
	})
	n := 0
	for _, fr := range recs {
		var cursor int
		if fr.Cursor != nil {
			cursor = *fr.Cursor
		} else {
			cursor = s.migrate(fr.Registration)
		}
		if _, err := s.register(fr.Registration, cursor, false); err != nil {
			s.logger.Warn("re-registering fleet failed", "fleet", fr.Name, "error", err)
			continue
		}
		n++
		s.logger.Info("resumed fleet from its record", "fleet", fr.Name, "cursor", cursor)
	}
	return n
}

// migrate gives a record written before fleets kept cursors the epoch
// of its legacy engine checkpoint (store.KindFleetCheckpoint), writes
// that cursor into the record, then removes the checkpoint (kept if the
// write fails). One that cannot be read or decoded is quarantined and
// the fleet starts at 0.
func (s *Scheduler) migrate(reg Registration) int {
	data, err := s.cfg.Storage.ReadRecord(store.KindFleetCheckpoint, reg.Name)
	if err == nil && data == nil {
		return 0
	}
	var eng *lifetime.Engine
	if err == nil {
		eng, err = lifetime.FromSnapshot(data)
	}
	if err != nil {
		s.cfg.Storage.QuarantineRecord(store.KindFleetCheckpoint, reg.Name, err)
		s.logger.Warn("quarantined a legacy fleet checkpoint; the fleet starts at epoch 0", "fleet", reg.Name, "error", err)
		return 0
	}
	if s.persist(reg, eng.Epoch()) == nil {
		s.cfg.Storage.RemoveRecord(store.KindFleetCheckpoint, reg.Name)
	}
	return eng.Epoch()
}

// register admits a population at cursor; persist writes its record
// first (Recover re-admits records already on disk).
func (s *Scheduler) register(reg Registration, cursor int, persist bool) (Status, error) {
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
	p := &population{reg: reg, state: StateActive, done: make(chan struct{}), cursor: cursor, resumed: cursor > 0}
	p.ctx, p.cancel = context.WithCancel(s.ctx)
	s.pops[reg.Name] = p // reserves the name while the record is written
	s.wg.Add(1)
	s.mu.Unlock()

	if persist && s.cfg.Storage != nil {
		if err := s.persist(reg, cursor); err != nil {
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

// Deregister stops a population, removes its record, and ends its
// event stream. It cancels the in-flight tick and waits for the loop
// to exit first, so no late tick can rewrite the removed record (a
// restart would resume it) or re-create the dropped topic.
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
	st.CheckpointFailures = s.ckptFail.Load()
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
// first tick and while its engine replays toward the cursor,
// exponential backoff after failures, the quarantine cooldown when
// parked, otherwise the registration interval (floored by its cooldown
// since the last tick start).
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
	if p.epoch < p.cursor {
		return 0, false
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
	run  *lifetime.Driver
	rows []lifetime.EpochStats
	err  error
}

// tick runs one tick under the watchdog: the tick body runs in its own
// goroutine with a deadline; if the deadline passes, the tick is
// abandoned (its engine with it — the next tick rebuilds one) and
// counted as a failure. A fleet has at most one abandoned tick: while
// it has not answered, later ticks wait on it under their own deadlines
// instead of starting another goroutine, so a Builder that never
// returns holds one goroutine, not one per retry. Its late result is
// discarded.
func (s *Scheduler) tick(p *population) {
	start := time.Now()
	s.mu.Lock()
	p.lastTickStart = start
	name := p.reg.Name
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(p.ctx, s.cfg.tickTimeout)
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
// On shutdown or deregistration it just abandons the tick: the last
// persisted cursor is where the fleet resumes. Otherwise the watchdog
// fired, and the timeout counts toward quarantine like any other
// failure.
func (s *Scheduler) tickExpired(p *population, name string, start time.Time) {
	if p.ctx.Err() != nil {
		return
	}
	err := fmt.Errorf("watchdog: tick exceeded %s deadline", s.cfg.tickTimeout)
	s.cfg.Instruments.observeTick(name, start, 0, 0, err)
	s.mu.Lock()
	p.watchdogTimeouts++
	s.mu.Unlock()
	s.tickFailed(p, err)
	s.mu.Lock()
	epoch, state := p.epoch, p.state
	s.mu.Unlock()
	if s.cfg.Bus != nil && state != StateQuarantined { // quarantine transition already announced
		s.cfg.Bus.Publish(FleetTopic(name), "state",
			StateEvent{Fleet: name, State: state, Epoch: epoch, Reason: "watchdog cancelled a stalled tick"})
	}
}

// runTick executes the tick body in the watchdog goroutine: obtain the
// fleet's driver (building it from the registration if it has none —
// fallible, so under the same protection), replay it silently to the
// cursor, then advance it EpochsPerTick epochs. Replay is bounded by
// catchUpWork per tick; a tick that only replays returns no rows. It
// never touches scheduler state or storage; results are applied by
// tickOK/tickFailed on the loop goroutine.
func (s *Scheduler) runTick(ctx context.Context, p *population) tickResult {
	s.mu.Lock()
	run, reg, cursor := p.run, p.reg, p.cursor
	s.mu.Unlock()

	if run == nil {
		cfg, err := s.cfg.Builder(reg)
		if err != nil {
			return tickResult{err: fmt.Errorf("building engine config: %w", err)}
		}
		if run, err = lifetime.Open(cfg); err != nil {
			return tickResult{err: fmt.Errorf("building engine: %w", err)}
		}
		run.Workers = s.cfg.Workers
	}

	eng := run.Engines[0]
	if behind := cursor - eng.Epoch(); behind > 0 {
		if _, err := run.Run(ctx, behind, catchUpWork); err != nil {
			return tickResult{err: err}
		}
		if eng.Epoch() < cursor {
			return tickResult{run: run}
		}
	}
	prev := eng.Epoch()
	if _, err := run.Run(ctx, reg.EpochsPerTick, 0); err != nil {
		return tickResult{err: err}
	}
	rows := append([]lifetime.EpochStats(nil), eng.Stats()[prev:]...)
	return tickResult{run: run, rows: rows}
}

// tickOK applies a successful tick: adopt the engine, clear failures
// (announcing recovery if the population was quarantined), advance and
// persist the cursor, then publish epoch events and evaluate alert
// rules — persist before publish, so a restart never publishes a row
// twice.
func (s *Scheduler) tickOK(p *population, res tickResult) {
	eng := res.run.Engines[0]
	epoch := eng.Epoch()
	var prevVTH []float64
	if prev := epoch - len(res.rows); prev > 0 {
		// The duty-deviation detector's baseline is the row before the
		// first new one. A rebuilt engine replayed every earlier row, so
		// a resumed fleet never reads its accumulated shift as one epoch
		// and fires a false wearout-attack alert.
		prevVTH = eng.Stats()[prev-1].MeanVTHShift
	}
	s.mu.Lock()
	wasQuarantined := p.state == StateQuarantined
	p.run = res.run
	p.ticks++
	p.failures = 0
	p.lastErr = ""
	p.epoch = epoch
	p.totalEpochs = eng.TotalEpochs()
	if epoch > 0 {
		row := eng.Stats()[epoch-1]
		p.lastStats = &row
	}
	if len(res.rows) > 0 {
		p.cursor = epoch
	}
	done := eng.Done()
	if done {
		p.state, p.run = StateDone, nil // a finished fleet never steps again
	} else {
		p.state = StateActive
	}
	reg := p.reg
	s.mu.Unlock()

	if len(res.rows) > 0 && s.cfg.Storage != nil {
		// A failed write leaves the fleet aging and publishing, but a
		// restart would resume it from an older cursor and publish these
		// epochs again: counted, and logged once.
		if err := s.persist(reg, epoch); err != nil && s.ckptFail.Add(1) == 1 {
			s.logger.Warn("fleet cursor write failed (counted; logged once)", "fleet", reg.Name, "error", err)
		}
	}
	if s.cfg.Bus != nil {
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

// tickFailed counts a consecutive failure, drops the engine (a failed
// or abandoned tick may have stepped it past the cursor, or still be
// stepping it), and quarantines the population once it reaches
// maxFailures. The next tick rebuilds the engine and replays it to the
// cursor.
func (s *Scheduler) tickFailed(p *population, err error) {
	s.mu.Lock()
	p.run = nil
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

// Close stops every loop, bounded by grace. Each completed tick already
// persisted its cursor, so SIGTERM mid-tick leaves every registered
// population resumable from its last completed tick.
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
}

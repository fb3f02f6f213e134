package fleetops

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"penelope/internal/lifetime"
	"penelope/internal/store"
)

// fastCfg returns scheduler settings tuned for tests: millisecond
// ticks, and with them sub-millisecond retries and a 20ms quarantine
// cooldown.
func fastCfg(cfg lifetime.Config) Config {
	return Config{
		Builder:         testBuilder(cfg),
		DefaultInterval: 2 * time.Millisecond,
		tickTimeout:     2 * time.Second,
		Workers:         2,
	}
}

func TestSchedulerRunsToDone(t *testing.T) {
	cfg := testConfig(0.5, 0, 0.05) // ~7 epochs
	bus := NewBus()
	sc := NewScheduler(func() Config { c := fastCfg(cfg); c.Bus = bus; return c }())
	defer sc.Close(time.Second)

	sub := subscribe(bus, FleetTopic("pop"), 0, 256)
	defer sub.Close()
	bus.Touch(FleetTopic("pop"))

	st, err := sc.Register(Registration{Name: "pop", EpochsPerTick: 2})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if st.State != StateActive {
		t.Fatalf("initial state = %v, want active", st.State)
	}
	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("pop")
		return ok && st.State == StateDone
	}) {
		st, _ := sc.Get("pop")
		t.Fatalf("population never finished: %+v", st)
	}
	st, _ = sc.Get("pop")
	if st.Epoch != st.TotalEpochs || st.Epoch == 0 {
		t.Fatalf("done at epoch %d of %d", st.Epoch, st.TotalEpochs)
	}
	// EpochStats rows are 0-indexed, so the last row of a finished
	// schedule is TotalEpochs-1.
	if st.Last == nil || st.Last.Epoch != st.Epoch-1 {
		t.Fatalf("missing or stale last stats: %+v", st.Last)
	}
	sc.mu.Lock()
	held := sc.pops["pop"].run != nil
	sc.mu.Unlock()
	if held {
		t.Error("finished population still holds its engine")
	}

	// The bus saw every epoch in order, plus the terminal state event.
	epochs, doneSeen := 0, false
	deadline := time.After(2 * time.Second)
	for !doneSeen {
		select {
		case ev := <-sub.C():
			switch ev.Type {
			case "epoch":
				epochs++
			case "state":
				var se StateEvent
				if err := json.Unmarshal(ev.Data, &se); err != nil {
					t.Fatalf("bad state event %s: %v", ev.Data, err)
				}
				if se.State == StateDone {
					doneSeen = true
				}
			}
		case <-deadline:
			t.Fatalf("saw %d epoch events (want %d) and no terminal state event", epochs, st.TotalEpochs)
		}
	}
	if epochs != st.TotalEpochs {
		t.Fatalf("bus carried %d epoch events, want %d", epochs, st.TotalEpochs)
	}

	stats := sc.Stats()
	if stats.Done != 1 || stats.TickFailures != 0 {
		t.Fatalf("stats = %+v, want one done population with no failures", stats)
	}
}

// TestSchedulerQuarantineAndRecovery drives one population into
// quarantine with failing engine builds while a healthy population
// keeps aging, then lets the quarantined one recover via its probation
// probe.
func TestSchedulerQuarantineAndRecovery(t *testing.T) {
	cfg := testConfig(3, 0, 0.05)
	var failing atomic.Bool
	failing.Store(true)
	scCfg := fastCfg(cfg)
	scCfg.Storage = newMemStorage()
	scCfg.Builder = func(reg Registration) (lifetime.Config, error) {
		if reg.Name == "bad" && failing.Load() {
			return lifetime.Config{}, errors.New("injected engine build failure")
		}
		return cfg, nil
	}
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)

	for _, name := range []string{"bad", "good"} {
		if _, err := sc.Register(Registration{Name: name}); err != nil {
			t.Fatalf("Register(%s): %v", name, err)
		}
	}

	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("bad")
		return ok && st.State == StateQuarantined
	}) {
		t.Fatal("bad population never quarantined")
	}
	if q := sc.Quarantined(); len(q) != 1 || q[0] != "bad" {
		t.Fatalf("Quarantined() = %v, want [bad]", q)
	}
	st, _ := sc.Get("bad")
	if st.TickFailures < maxFailures || st.Quarantines != 1 {
		t.Fatalf("bad status after quarantine: %+v", st)
	}

	// The healthy population is not stalled by its quarantined sibling.
	goodBefore, _ := sc.Get("good")
	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("good")
		return ok && (st.Epoch > goodBefore.Epoch || st.State == StateDone)
	}) {
		t.Fatal("good population stalled while bad was quarantined")
	}

	// Heal the sink; the probation probe after the cooldown recovers it.
	failing.Store(false)
	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("bad")
		return ok && st.State != StateQuarantined && st.Epoch > 0
	}) {
		st, _ := sc.Get("bad")
		t.Fatalf("bad population never recovered: %+v", st)
	}
	st, _ = sc.Get("bad")
	if st.ConsecutiveFailures != 0 || st.LastError != "" {
		t.Fatalf("recovery did not clear failure state: %+v", st)
	}
}

// TestSchedulerWatchdog hangs a tick past its deadline — its engine
// build stalls — and checks the watchdog abandons it, counts it, and
// that the population still makes progress once ticks behave again.
func TestSchedulerWatchdog(t *testing.T) {
	cfg := testConfig(3, 0, 0.05)
	unhang := make(chan struct{})
	scCfg := fastCfg(cfg)
	scCfg.tickTimeout = 15 * time.Millisecond
	scCfg.Builder = func(Registration) (lifetime.Config, error) {
		<-unhang // wedge until the test heals the builder
		return cfg, nil
	}
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)

	if _, err := sc.Register(Registration{Name: "wedged"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("wedged")
		return ok && st.WatchdogTimeouts >= 1
	}) {
		t.Fatal("watchdog never fired")
	}
	close(unhang)
	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("wedged")
		return ok && st.Epoch > 0 && st.State != StateQuarantined
	}) {
		st, _ := sc.Get("wedged")
		t.Fatalf("population never progressed after watchdog recovery: %+v", st)
	}
}

// TestSchedulerWatchdogBoundsAbandonedTicks stalls the Builder for
// good: every retry and probation probe times out, but they all wait on
// the one abandoned tick, so the fleet holds its loop goroutine and one
// stalled tick goroutine however often the watchdog fires.
func TestSchedulerWatchdogBoundsAbandonedTicks(t *testing.T) {
	cfg := testConfig(3, 0, 0.05)
	unhang := make(chan struct{})
	var builds atomic.Int64
	scCfg := fastCfg(cfg)
	scCfg.tickTimeout = 5 * time.Millisecond
	scCfg.Builder = func(Registration) (lifetime.Config, error) {
		builds.Add(1)
		<-unhang
		return cfg, nil
	}
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)
	defer close(unhang)

	before := runtime.NumGoroutine()
	if _, err := sc.Register(Registration{Name: "stalled"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !waitFor(10*time.Second, func() bool {
		st, _ := sc.Get("stalled")
		return st.WatchdogTimeouts >= 10
	}) {
		st, _ := sc.Get("stalled")
		t.Fatalf("watchdog fired %d times, want 10", st.WatchdogTimeouts)
	}
	if extra := runtime.NumGoroutine() - before; extra > 2 {
		t.Fatalf("%d goroutines beyond the %d before registration, want at most 2", extra, before)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("stalled Builder entered %d times, want 1", n)
	}
}

// TestSchedulerResume closes a scheduler mid-schedule and recovers it
// against the same storage: the population resumes at its cursor
// (Resumed flag set) instead of restarting at epoch zero, and the
// resumed trajectory matches an uninterrupted reference run exactly.
func TestSchedulerResume(t *testing.T) {
	cfg := testConfig(0.5, 0, 0.08)
	storage := newMemStorage()

	scCfg := fastCfg(cfg)
	scCfg.Storage = storage
	sc := NewScheduler(scCfg)
	if _, err := sc.Register(Registration{Name: "pop", EpochsPerTick: 1}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("pop")
		return ok && st.Epoch >= 2 && st.State == StateActive
	}) {
		t.Fatal("population never reached epoch 2")
	}
	sc.Close(time.Second)

	if cursorOf(t, storage, "pop") < 2 {
		t.Fatal("Close left no cursor behind")
	}
	if _, ok := storage.recs[store.KindFleet]["pop"]; !ok {
		t.Fatal("registration sidecar missing")
	}

	sc2 := NewScheduler(scCfg)
	defer sc2.Close(time.Second)
	if n := sc2.Recover(); n != 1 {
		t.Fatalf("Recover resumed %d fleets, want 1", n)
	}
	if !waitFor(10*time.Second, func() bool {
		st, ok := sc2.Get("pop")
		return ok && st.State == StateDone
	}) {
		st, _ := sc2.Get("pop")
		t.Fatalf("resumed population never finished: %+v", st)
	}
	st, _ := sc2.Get("pop")
	if !st.Resumed {
		t.Fatal("resumed population not flagged Resumed")
	}

	// Byte-identical resume: the final epoch row matches a reference
	// engine run with no interruption.
	ref, err := lifetime.New(cfg)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	for !ref.Done() {
		ref.Step(2)
	}
	want := ref.Stats()[len(ref.Stats())-1]
	got := *st.Last
	if got.Epoch != want.Epoch || got.P99Guardband != want.P99Guardband ||
		got.ViolatedFraction != want.ViolatedFraction {
		t.Fatalf("resumed trajectory diverged:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.MeanVTHShift {
		if got.MeanVTHShift[i] != want.MeanVTHShift[i] {
			t.Fatalf("MeanVTHShift[%d] = %v, want %v (bit-exact)", i, got.MeanVTHShift[i], want.MeanVTHShift[i])
		}
	}
}

func TestSchedulerDeregisterAndDuplicates(t *testing.T) {
	cfg := testConfig(3, 0, 0.05)
	storage := newMemStorage()
	bus := NewBus()
	scCfg := fastCfg(cfg)
	scCfg.Storage = storage
	scCfg.Bus = bus
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)

	if _, err := sc.Register(Registration{Name: "pop"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := sc.Register(Registration{Name: "pop"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Register error = %v, want ErrExists", err)
	}
	if _, err := sc.Register(Registration{Name: "Bad Name!"}); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, err := sc.Register(Registration{Name: "x", Fleet: "warp-core"}); err == nil {
		t.Fatal("unknown fleet accepted")
	}

	sub := subscribe(bus, FleetTopic("pop"), 0, 16)
	if err := sc.Deregister("pop"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, ok := sc.Get("pop"); ok {
		t.Fatal("deregistered population still listed")
	}
	if _, ok := storage.recs[store.KindFleet]["pop"]; ok {
		t.Fatal("deregistered sidecar still stored")
	}
	if bus.HasTopic(FleetTopic("pop")) {
		t.Fatal("deregistered topic still exists")
	}
	// The subscriber's channel closes so streams end.
	if !waitFor(time.Second, func() bool {
		for {
			select {
			case _, ok := <-sub.C():
				if !ok {
					return true
				}
			default:
				return false
			}
		}
	}) {
		t.Fatal("subscription never closed after Deregister")
	}
	if err := sc.Deregister("pop"); err == nil {
		t.Fatal("double Deregister succeeded")
	}
}

// TestSchedulerCloseIsIdempotentAndPersists covers Close: it persists
// the cursor even when no clean tick boundary coincides with shutdown,
// and calling it twice is safe.
func TestSchedulerCloseIsIdempotentAndPersists(t *testing.T) {
	cfg := testConfig(3, 0, 0.05)
	storage := newMemStorage()
	scCfg := fastCfg(cfg)
	scCfg.Storage = storage
	sc := NewScheduler(scCfg)
	if _, err := sc.Register(Registration{Name: "pop"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("pop")
		return ok && st.Epoch >= 1
	}) {
		t.Fatal("population never ticked")
	}
	sc.Close(time.Second)
	sc.Close(time.Second) // idempotent
	if st, _ := sc.Get("pop"); cursorOf(t, storage, "pop") != st.Epoch {
		t.Fatal("Close did not persist the cursor")
	}
	if _, err := sc.Register(Registration{Name: "late"}); err == nil {
		t.Fatal("Register after Close succeeded")
	}
}

// TestSchedulerResumeSeedsDetectorBaseline restarts a scheduler whose
// population has the wearout-attack monitor armed. The first resumed
// tick must seed the detector's previous-epoch baseline from the
// replayed engine's row at the cursor — seeding from zero would read
// the accumulated shift as one epoch at duty ~1.0 and fire a false
// wearout-attack alert on every restart.
func TestSchedulerResumeSeedsDetectorBaseline(t *testing.T) {
	cfg := testConfig(0.5, 0, 0.08)
	storage := newMemStorage()
	sink := &FaultSink{Seed: 1}
	reg := Registration{Name: "pop", EpochsPerTick: 1,
		Alerts: AlertRules{DutyTolerance: DefaultDutyTolerance}}

	run := func(minEpoch int, recover bool) {
		t.Helper()
		d := newDeliverer(sink, nil, fastPolicy(1, 0))
		scCfg := fastCfg(cfg)
		scCfg.Storage = storage
		scCfg.Alerter = NewAlerter(nil, d)
		sc := NewScheduler(scCfg)
		if recover {
			if n := sc.Recover(); n != 1 {
				t.Fatalf("Recover resumed %d fleets, want 1", n)
			}
		} else if _, err := sc.Register(reg); err != nil {
			t.Fatalf("Register: %v", err)
		}
		if !waitFor(10*time.Second, func() bool {
			st, ok := sc.Get("pop")
			return ok && st.Epoch >= minEpoch
		}) {
			st, _ := sc.Get("pop")
			t.Fatalf("population never reached epoch %d: %+v", minEpoch, st)
		}
		sc.Close(time.Second)
		d.Close()
	}

	run(3, false) // accumulate shift under the clean declared workload
	run(5, true)  // restart: the resumed ticks must stay quiet too
	if got := sink.Delivered(); len(got) != 0 {
		t.Fatalf("clean resumed run fired alerts: %+v", got)
	}
}

// TestSchedulerBuilderFailureQuarantines exercises the registration
// whose engine cannot even be built: the failure lands in the tick
// path, retries, and quarantines without wedging Register.
func TestSchedulerBuilderFailureQuarantines(t *testing.T) {
	scCfg := fastCfg(testConfig(1, 0, 0.05))
	scCfg.Builder = func(reg Registration) (lifetime.Config, error) {
		return lifetime.Config{}, fmt.Errorf("no such workload")
	}
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)
	if _, err := sc.Register(Registration{Name: "doomed"}); err != nil {
		t.Fatalf("Register should defer builder errors to the tick path, got %v", err)
	}
	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("doomed")
		return ok && st.State == StateQuarantined
	}) {
		t.Fatal("unbuildable population never quarantined")
	}
	st, _ := sc.Get("doomed")
	if st.LastError == "" {
		t.Fatal("quarantined status carries no error")
	}
}

package fleetops

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"penelope/internal/lifetime"
	"penelope/internal/mix"
)

// fastPolicy is the production delivery policy with the given worker
// and retry counts and microsecond backoff.
func fastPolicy(workers, maxRetries int) policy {
	pol := deliveryPolicy
	pol.workers, pol.maxRetries, pol.retry.Base = workers, maxRetries, time.Microsecond
	return pol
}

func mkAlert(i int) Alert {
	return Alert{
		ID:    fmt.Sprintf("pop/%s/%d", RuleP99Guardband, i),
		Fleet: "pop", Rule: RuleP99Guardband, Epoch: i,
		Value: 0.09, Threshold: 0.08, Message: "test alert",
	}
}

func TestDelivererRetriesThenDelivers(t *testing.T) {
	sink := &FaultSink{Seed: 1, FailFirst: 2}
	d := newDeliverer(sink, nil, fastPolicy(1, 3))
	d.Enqueue(mkAlert(0))
	d.Close()
	st := d.Stats()
	if st.Delivered != 1 || st.Retries != 2 || st.DeadLettered != 0 {
		t.Fatalf("stats = %+v, want delivered=1 retries=2", st)
	}
	if got := sink.Delivered(); len(got) != 1 || got[0].ID != mkAlert(0).ID {
		t.Fatalf("sink saw %+v", got)
	}
}

func TestDelivererDeadLettersAfterRetriesExhausted(t *testing.T) {
	sink := &FaultSink{Seed: 1, FailFirst: 10}
	d := newDeliverer(sink, nil, fastPolicy(1, 2))
	d.Enqueue(mkAlert(0))
	d.Close()
	st := d.Stats()
	if st.Delivered != 0 || st.Retries != 2 || st.DeadLettered != 1 {
		t.Fatalf("stats = %+v, want dead_lettered=1 after 2 retries", st)
	}
	if len(st.DeadLetters) != 1 || st.DeadLetters[0].Alert.ID != mkAlert(0).ID {
		t.Fatalf("dead letters = %+v", st.DeadLetters)
	}
}

// flakySink fails while broken is set — the mutable sink the breaker
// lifecycle test toggles.
type flakySink struct {
	broken   atomic.Bool
	attempts atomic.Uint64
}

func (f *flakySink) Name() string { return "flaky" }
func (f *flakySink) Deliver(ctx context.Context, a Alert) error {
	f.attempts.Add(1)
	if f.broken.Load() {
		return errors.New("flaky: down")
	}
	return nil
}

// TestBreakerLifecycle drives the circuit closed → open → half-open →
// closed: consecutive failures open it, deliveries during the cooldown
// fast-fail without touching the sink, and the first success after the
// cooldown closes it again.
func TestBreakerLifecycle(t *testing.T) {
	sink := &flakySink{}
	sink.broken.Store(true)
	pol := fastPolicy(1, 0)
	pol.breakerThreshold, pol.breakerCooldown = 3, 50*time.Millisecond
	d := newDeliverer(sink, nil, pol)
	defer d.Close()

	// Three failed deliveries open the breaker.
	for i := 0; i < 3; i++ {
		d.Enqueue(mkAlert(i))
	}
	if !waitFor(2*time.Second, func() bool { return d.Stats().BreakerState == "open" }) {
		t.Fatalf("breaker never opened: %+v", d.Stats())
	}
	st := d.Stats()
	if st.BreakerOpens != 1 || st.DeadLettered != 3 {
		t.Fatalf("after opening: %+v", st)
	}

	// While open, deliveries fast-fail to the dead-letter queue without
	// touching the sink.
	before := sink.attempts.Load()
	d.Enqueue(mkAlert(10))
	if !waitFor(2*time.Second, func() bool { return d.Stats().DeadLettered == 4 }) {
		t.Fatalf("open breaker did not fast-fail: %+v", d.Stats())
	}
	if sink.attempts.Load() != before {
		t.Fatal("open breaker still hit the sink")
	}
	if d.Stats().BreakerFastFails == 0 {
		t.Fatal("fast fails not counted")
	}

	// Heal the sink and wait out the cooldown: the next delivery is the
	// half-open probe; its success closes the breaker.
	sink.broken.Store(false)
	time.Sleep(60 * time.Millisecond)
	if got := d.Stats().BreakerState; got != "half-open" {
		t.Fatalf("breaker state after cooldown = %q, want half-open", got)
	}
	d.Enqueue(mkAlert(11))
	if !waitFor(2*time.Second, func() bool { return d.Stats().Delivered == 1 }) {
		t.Fatalf("probe never delivered: %+v", d.Stats())
	}
	if got := d.Stats().BreakerState; got != "closed" {
		t.Fatalf("breaker state after successful probe = %q, want closed", got)
	}
}

// TestDelivererDeterministicAcrossWorkers is the seeded-determinism
// acceptance test: the same seed and fault schedule produce identical
// delivered/retried/dead-lettered counts on every run, whether the
// pipeline drains with one worker or four.
func TestDelivererDeterministicAcrossWorkers(t *testing.T) {
	const alerts = 40
	run := func(workers int) DeliveryStats {
		sink := &FaultSink{Seed: 99, FailRate: 0.45}
		pol := fastPolicy(workers, 2)
		pol.queueDepth, pol.retry.Seed = alerts, 99
		// Which alerts a tripped breaker fast-fails depends on the order
		// workers finish in, so an unreachable threshold keeps it out.
		pol.breakerThreshold = math.MaxInt
		d := newDeliverer(sink, nil, pol)
		for i := 0; i < alerts; i++ {
			if !d.Enqueue(mkAlert(i)) {
				t.Fatalf("enqueue %d rejected", i)
			}
		}
		d.Close()
		st := d.Stats()
		st.Sink, st.DeadLetters, st.BreakerState = "", nil, "" // compare counters only
		return st
	}
	base := run(1)
	if base.Delivered == 0 || base.DeadLettered == 0 {
		t.Fatalf("fault schedule not exercising both outcomes: %+v", base)
	}
	if base.Delivered+base.DeadLettered != alerts {
		t.Fatalf("accounting leak: %+v", base)
	}
	for _, workers := range []int{1, 4} {
		for rep := 0; rep < 3; rep++ {
			got := run(workers)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("workers=%d rep=%d: stats diverged\n got %+v\nwant %+v", workers, rep, got, base)
			}
		}
	}
}

func TestDelivererQueueFullDrops(t *testing.T) {
	sink := &FaultSink{Latency: 50 * time.Millisecond}
	pol := fastPolicy(1, 0)
	pol.queueDepth = 1
	d := newDeliverer(sink, nil, pol)
	accepted := 0
	for i := 0; i < 10; i++ {
		if d.Enqueue(mkAlert(i)) {
			accepted++
		}
	}
	d.Close()
	st := d.Stats()
	if st.DroppedQueueFull == 0 {
		t.Fatalf("no drops with a 1-deep queue and a slow sink: %+v", st)
	}
	if uint64(accepted) != st.Enqueued-st.DroppedQueueFull {
		t.Fatalf("accepted %d but stats say %d", accepted, st.Enqueued-st.DroppedQueueFull)
	}
	if d.Enqueue(mkAlert(99)) {
		t.Fatal("Enqueue after Close accepted")
	}
}

// TestDelivererEnqueueCloseRace hammers Enqueue from several
// goroutines while Close runs: a late Enqueue must return false, never
// send on the closed queue and panic. Run with -race.
func TestDelivererEnqueueCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		sink := &FaultSink{Seed: 1}
		d := newDeliverer(sink, nil, fastPolicy(2, 0))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					d.Enqueue(mkAlert(g*1000 + i))
				}
			}(g)
		}
		close(start)
		d.Close()
		wg.Wait()
		st := d.Stats()
		if st.Delivered != uint64(len(sink.Delivered())) {
			t.Fatalf("round %d: delivered counter %d != sink %d", round, st.Delivered, len(sink.Delivered()))
		}
		if d.Enqueue(mkAlert(0)) {
			t.Fatal("Enqueue after Close succeeded")
		}
	}
}

func TestWebhookSink(t *testing.T) {
	var got atomic.Int64
	fail := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, "nope", http.StatusInternalServerError)
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		got.Add(1)
	}))
	defer ts.Close()
	sink := &WebhookSink{URL: ts.URL}
	if err := sink.Deliver(context.Background(), mkAlert(0)); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if got.Load() != 1 {
		t.Fatalf("webhook hit %d times", got.Load())
	}
	fail.Store(true)
	if err := sink.Deliver(context.Background(), mkAlert(1)); err == nil {
		t.Fatal("non-2xx treated as success")
	}
}

// TestAlerterLatching: a sustained threshold crossing fires once, and
// the rule re-arms after the condition clears.
func TestAlerterLatching(t *testing.T) {
	al := NewAlerter(nil, nil)
	rules := AlertRules{P99Guardband: 0.05}
	row := func(epoch int, p99 float64) lifetime.EpochStats {
		return lifetime.EpochStats{Epoch: epoch, P99Guardband: p99, MeanVTHShift: []float64{0, 0}}
	}
	seq := []struct {
		p99  float64
		want int
	}{
		{0.01, 0}, // below
		{0.06, 1}, // crossing: fire
		{0.07, 0}, // still above: latched
		{0.02, 0}, // cleared: re-arm
		{0.09, 1}, // second crossing: fire again
	}
	total := 0
	for i, s := range seq {
		fired := al.Observe("pop", rules, nil, nil, row(i, s.p99))
		if len(fired) != s.want {
			t.Fatalf("step %d (p99=%v): fired %d alerts, want %d", i, s.p99, len(fired), s.want)
		}
		total += len(fired)
		for _, a := range fired {
			if a.Rule != RuleP99Guardband || a.Fleet != "pop" || a.Epoch != i {
				t.Fatalf("bad alert %+v", a)
			}
			if want := fmt.Sprintf("pop/%s/%d", RuleP99Guardband, i); a.ID != want {
				t.Fatalf("ID = %q, want %q", a.ID, want)
			}
		}
	}
	st := al.Stats()
	if st.Fired != uint64(total) || st.Evaluated != uint64(len(seq)) {
		t.Fatalf("stats = %+v, want fired=%d evaluated=%d", st, total, len(seq))
	}
}

// TestAlerterFansOut: fired alerts land on the fleet's bus topic and in
// the delivery pipeline.
func TestAlerterFansOut(t *testing.T) {
	bus := NewBus()
	sink := &FaultSink{}
	d := newDeliverer(sink, nil, fastPolicy(1, 0))
	al := NewAlerter(bus, d)
	sub := subscribe(bus, FleetTopic("pop"), 0, 8)
	defer sub.Close()

	cur := lifetime.EpochStats{Epoch: 3, ViolatedFraction: 0.2, MeanVTHShift: []float64{0, 0}}
	fired := al.Observe("pop", AlertRules{ViolatedFraction: 0.1}, nil, nil, cur)
	if len(fired) != 1 {
		t.Fatalf("fired %d alerts, want 1", len(fired))
	}
	select {
	case ev := <-sub.C():
		if ev.Type != "alert" {
			t.Fatalf("bus event type = %q, want alert", ev.Type)
		}
	case <-time.After(time.Second):
		t.Fatal("alert never reached the bus")
	}
	d.Close()
	if got := sink.Delivered(); len(got) != 1 || got[0].Rule != RuleViolatedFraction {
		t.Fatalf("pipeline delivered %+v", got)
	}
}

// TestAlerterDutyDeviationEndToEnd wires the real detector into the
// alerter over an attacked fleet: the duty-deviation rule fires within
// two epochs of the attack phase and stays quiet before it.
func TestAlerterDutyDeviationEndToEnd(t *testing.T) {
	cfg := testConfig(2, 0.3, 0.08)
	rows := runFleet(t, cfg)
	first, _ := attackEpochs(rows)
	det := NewDeviationDetector(cfg, DefaultDutyTolerance)
	al := NewAlerter(nil, nil)
	rules := AlertRules{DutyTolerance: DefaultDutyTolerance}

	firedAt := -1
	var prev []float64
	for _, row := range rows {
		for _, a := range al.Observe("pop", rules, det, prev, row) {
			if a.Rule != RuleDutyDeviation {
				t.Fatalf("unexpected rule %q", a.Rule)
			}
			if a.Epoch < first {
				t.Fatalf("duty-deviation alert at epoch %d, before attack start %d", a.Epoch, first)
			}
			if firedAt < 0 {
				firedAt = a.Epoch
			}
			if a.Structure == "" {
				t.Fatal("duty-deviation alert names no structure")
			}
		}
		prev = row.MeanVTHShift
	}
	if firedAt < 0 || firedAt > first+1 {
		t.Fatalf("duty-deviation fired at %d, want within 2 epochs of %d", firedAt, first)
	}
}

// FaultSink is a deterministic fault-injecting Sink: failure decisions
// key on (seed, alert ID, per-alert attempt index), never on global
// order, so the same seed and fault schedule reproduce the exact same
// delivery/retry/dead-letter counts at any worker count.
type FaultSink struct {
	// Seed drives the per-attempt failure draw.
	Seed uint64
	// FailFirst fails the first N attempts of every alert outright.
	FailFirst int
	// FailRate is the probability any later attempt fails.
	FailRate float64
	// Latency delays every attempt (simulates a slow sink).
	Latency time.Duration

	mu        sync.Mutex
	attempts  map[string]int
	delivered []Alert
}

// Name identifies the sink.
func (f *FaultSink) Name() string { return "fault-sink" }

// Deliver fails or succeeds per the seeded schedule.
func (f *FaultSink) Deliver(ctx context.Context, a Alert) error {
	if f.Latency > 0 {
		select {
		case <-time.After(f.Latency):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	f.mu.Lock()
	if f.attempts == nil {
		f.attempts = make(map[string]int)
	}
	attempt := f.attempts[a.ID]
	f.attempts[a.ID] = attempt + 1
	f.mu.Unlock()
	if attempt < f.FailFirst {
		return fmt.Errorf("fault-sink: injected failure (attempt %d of first %d)", attempt, f.FailFirst)
	}
	if f.FailRate > 0 && mix.Keyed(f.Seed, a.ID, uint64(attempt)) < f.FailRate {
		return fmt.Errorf("fault-sink: injected failure (attempt %d)", attempt)
	}
	f.mu.Lock()
	f.delivered = append(f.delivered, a)
	f.mu.Unlock()
	return nil
}

// Delivered returns the successfully delivered alerts so far.
func (f *FaultSink) Delivered() []Alert {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Alert(nil), f.delivered...)
}

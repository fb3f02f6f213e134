package fleetops

import (
	"strings"
	"testing"
	"time"
)

// fakeHistory scripts the reductions per (name, window).
type fakeHistory struct {
	increase map[string]map[time.Duration]float64
	avg      map[string]map[time.Duration]float64
	slope    map[string]map[time.Duration]float64
}

func lookup(m map[string]map[time.Duration]float64, name string, w time.Duration) (float64, bool) {
	if m == nil {
		return 0, false
	}
	v, ok := m[name][w]
	return v, ok
}

func (f *fakeHistory) Increase(name string, w time.Duration, _ time.Time) (float64, bool) {
	return lookup(f.increase, name, w)
}
func (f *fakeHistory) Avg(name string, w time.Duration, _ time.Time) (float64, bool) {
	return lookup(f.avg, name, w)
}
func (f *fakeHistory) Slope(name string, w time.Duration, _ time.Time) (float64, bool) {
	return lookup(f.slope, name, w)
}

func burnRule() SLORule {
	return SLORule{
		Name: "shed-budget", Kind: SLOBurnRate,
		Numerator: "shed_total", Denominator: "req_total",
		Objective:   0.01, // 1% error budget
		ShortWindow: Duration(5 * time.Minute),
		LongWindow:  Duration(time.Hour),
		Burn:        2,
	}
}

func setBurn(h *fakeHistory, short, long float64) {
	// req increase fixed at 1000 per window; shed scaled to hit the
	// requested burn multiple of the 1% objective.
	h.increase = map[string]map[time.Duration]float64{
		"shed_total": {5 * time.Minute: short * 0.01 * 1000, time.Hour: long * 0.01 * 1000},
		"req_total":  {5 * time.Minute: 1000, time.Hour: 1000},
	}
}

// TestSLOBurnRateMultiWindow drives the latch through the canonical
// multi-window sequence: long-only breach stays quiet, both-window
// breach fires once, sustained breach stays latched, a cleared short
// window re-arms, and the next both-window breach fires again.
func TestSLOBurnRateMultiWindow(t *testing.T) {
	h := &fakeHistory{}
	eng, err := NewSLOEngine(h, []SLORule{burnRule()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	step := func(short, long float64, wantFired int, label string) []Alert {
		t.Helper()
		setBurn(h, short, long)
		now = now.Add(time.Minute)
		fired := eng.EvaluateOnce(now)
		if len(fired) != wantFired {
			t.Fatalf("%s: fired %d alerts, want %d (%+v)", label, len(fired), wantFired, fired)
		}
		return fired
	}

	step(0.5, 3, 0, "long-only breach")  // incident over, budget still drained
	step(3, 0.5, 0, "short-only breach") // blip, no sustained spend
	a := step(3, 3, 1, "both breach")    // fire
	if a[0].Fleet != "slo" || a[0].Rule != "shed-budget" || a[0].Threshold != 2 {
		t.Fatalf("alert = %+v, want fleet slo, rule shed-budget, threshold 2", a[0])
	}
	if !strings.HasPrefix(a[0].ID, "slo/shed-budget/") {
		t.Fatalf("alert ID %q not deterministic slo/<rule>/<unix>", a[0].ID)
	}
	step(4, 4, 0, "still breaching")  // latched
	step(0.5, 4, 0, "short recovers") // re-arm
	step(5, 5, 1, "breaches again")   // second incident

	st := eng.Stats()
	if st.Rules != 1 || st.Fired != 2 || st.Firing != 1 || st.Evaluated != 6 {
		t.Fatalf("stats = %+v, want 1 rule, 2 fired, 1 firing, 6 evaluated", st)
	}
	status := eng.Status()
	if len(status) != 1 || !status[0].Firing || status[0].Short.Value != 5 {
		t.Fatalf("status = %+v", status)
	}
	if status[0].LastFired.IsZero() {
		t.Fatal("LastFired not recorded")
	}
}

func TestSLOThresholdAndSlope(t *testing.T) {
	h := &fakeHistory{
		avg: map[string]map[time.Duration]float64{
			"depth": {time.Minute: 12, 10 * time.Minute: 11},
		},
		slope: map[string]map[time.Duration]float64{
			"gb": {time.Minute: -0.5, 10 * time.Minute: -0.4},
		},
	}
	rules := []SLORule{
		{Name: "depth-high", Kind: SLOThreshold, Series: "depth", Objective: 10,
			ShortWindow: Duration(time.Minute), LongWindow: Duration(10 * time.Minute)},
		{Name: "gb-eroding", Kind: SLOSlope, Series: "gb", Objective: -0.1, Direction: "below",
			ShortWindow: Duration(time.Minute), LongWindow: Duration(10 * time.Minute)},
	}
	eng, err := NewSLOEngine(h, rules, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fired := eng.EvaluateOnce(time.Unix(1_700_000_000, 0))
	if len(fired) != 2 {
		t.Fatalf("fired %d alerts, want both threshold and slope: %+v", len(fired), fired)
	}
}

// TestSLOInsufficientHistoryStaysQuiet: windows the source cannot
// answer (cold start) must not fire, whatever the other window says.
func TestSLOInsufficientHistoryStaysQuiet(t *testing.T) {
	h := &fakeHistory{increase: map[string]map[time.Duration]float64{
		"shed_total": {5 * time.Minute: 900},
		"req_total":  {5 * time.Minute: 1000},
	}} // long window entirely absent
	eng, err := NewSLOEngine(h, []SLORule{burnRule()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fired := eng.EvaluateOnce(time.Unix(1_700_000_000, 0)); len(fired) != 0 {
		t.Fatalf("cold-start engine fired %+v", fired)
	}
	st := eng.Status()
	if st[0].Long.OK || !st[0].Short.OK {
		t.Fatalf("window OK flags = %+v", st[0])
	}
}

func TestSLORuleValidation(t *testing.T) {
	h := &fakeHistory{}
	bad := []SLORule{
		{Name: "", Kind: SLOBurnRate},
		{Name: "x", Kind: "bogus"},
		{Name: "x", Kind: SLOBurnRate, Numerator: "a"},
		{Name: "x", Kind: SLOBurnRate, Numerator: "a", Denominator: "b", Objective: 1.5},
		{Name: "x", Kind: SLOThreshold},
		{Name: "x", Kind: SLOThreshold, Series: "s", Direction: "sideways"},
	}
	for i, r := range bad {
		if _, err := NewSLOEngine(h, []SLORule{r}, nil, nil); err == nil {
			t.Errorf("rule %d (%+v) accepted", i, r)
		}
	}
	dup := []SLORule{
		{Name: "d", Kind: SLOThreshold, Series: "s", Objective: 1},
		{Name: "d", Kind: SLOThreshold, Series: "s", Objective: 2},
	}
	if _, err := NewSLOEngine(h, dup, nil, nil); err == nil {
		t.Error("duplicate rule names accepted")
	}
	// Defaults fill in.
	eng, err := NewSLOEngine(h, []SLORule{{Name: "ok", Numerator: "a", Denominator: "b", Objective: 0.01}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Status()
	_ = st
	eng.latch.mu.Lock()
	r := eng.rules[0]
	eng.latch.mu.Unlock()
	if r.Kind != SLOBurnRate || r.Burn != 1 ||
		time.Duration(r.ShortWindow) != 5*time.Minute || time.Duration(r.LongWindow) != time.Hour {
		t.Fatalf("defaults not applied: %+v", r)
	}
}

// TestSLOFiresThroughDeliveryPipeline is the acceptance-criteria test:
// a breaching burn-rate SLO fires through the same hardened pipeline
// epoch alerts use, and the retry / dead-letter / breaker bookkeeping
// stays intact. The FaultSink schedule keys on alert IDs, which are
// deterministic (slo/<rule>/<unix> with a scripted clock), so every
// count below is exact.
func TestSLOFiresThroughDeliveryPipeline(t *testing.T) {
	h := &fakeHistory{}
	setBurn(h, 3, 3)

	// First attempt of every alert fails: each fired alert costs one
	// retry, then delivers.
	sink := &FaultSink{FailFirst: 1}
	pol := deliveryPolicy
	pol.maxRetries, pol.retry.Base, pol.retry.Seed = 2, time.Millisecond, 42
	d := newDeliverer(sink, nil, pol)
	bus := NewBus()
	eng, err := NewSLOEngine(h, []SLORule{burnRule()}, bus, d)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	if fired := eng.EvaluateOnce(now); len(fired) != 1 {
		t.Fatalf("fired %d, want 1", len(fired))
	}
	// Clear and re-breach for a second deterministic incident.
	setBurn(h, 0.1, 3)
	eng.EvaluateOnce(now.Add(time.Minute))
	setBurn(h, 3, 3)
	if fired := eng.EvaluateOnce(now.Add(2 * time.Minute)); len(fired) != 1 {
		t.Fatalf("second incident fired %d, want 1", len(fired))
	}
	d.Close() // drains: every enqueued alert delivered or dead-lettered

	st := d.Stats()
	if st.Enqueued != 2 || st.Delivered != 2 || st.Retries != 2 || st.DeadLettered != 0 {
		t.Fatalf("pipeline stats = %+v, want 2 enqueued / 2 delivered / 2 retries / 0 dead", st)
	}
	got := sink.Delivered()
	if len(got) != 2 || got[0].ID == got[1].ID {
		t.Fatalf("sink saw %+v, want two distinct alerts", got)
	}

	// A sink that never recovers: retries exhaust into the dead-letter
	// queue and the breaker opens after the threshold.
	deadSink := &FaultSink{FailFirst: 1 << 20}
	pol.maxRetries, pol.breakerThreshold, pol.breakerCooldown = 1, 2, time.Hour
	d2 := newDeliverer(deadSink, nil, pol)
	eng2, err := NewSLOEngine(h, []SLORule{burnRule()}, nil, d2)
	if err != nil {
		t.Fatal(err)
	}
	eng2.EvaluateOnce(now)
	d2.Close()
	st2 := d2.Stats()
	if st2.DeadLettered != 1 || st2.Delivered != 0 {
		t.Fatalf("dead-letter stats = %+v, want 1 dead / 0 delivered", st2)
	}
	if len(st2.DeadLetters) != 1 || !strings.Contains(st2.DeadLetters[0].Reason, "retries exhausted") {
		t.Fatalf("dead letters = %+v", st2.DeadLetters)
	}
	if st2.BreakerOpens != 1 || st2.BreakerState != "open" {
		t.Fatalf("breaker = %s with %d opens, want open/1", st2.BreakerState, st2.BreakerOpens)
	}
}

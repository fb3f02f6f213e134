package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"penelope/internal/circuit"
	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/lifetime"
)

// testFleetBuilder returns a ConfigBuilder producing a small synthetic
// population (~totalEpochs epochs), keeping HTTP-level fleet tests away
// from the trace pipeline.
func testFleetBuilder(years float64) fleetops.ConfigBuilder {
	p := lifetime.DefaultParams()
	cfg := lifetime.Config{
		Structures: []string{"adder", "regfile"},
		Phases:     []lifetime.Phase{{Name: "service", Years: years, Duty: []float64{0.55, 0.35}}},
		Population: 256,
		EpochYears: 30.0 / 365.25,
		Seed:       1,
		Sigma:      0.08,
		Limit:      lifetime.DefaultLimit,
		Params:     p,
		Delay:      circuit.NewDelayModel(circuit.PathStats{Depth: 10, Narrow: 5}, p.MaxVTHShift, p.MaxGuardband),
	}
	return func(fleetops.Registration) (lifetime.Config, error) { return cfg, nil }
}

// fastFleetConfig returns service settings with millisecond fleet
// ticks.
func fastFleetConfig(builder fleetops.ConfigBuilder) Config {
	return Config{
		Workers:      2,
		FleetTick:    2 * time.Millisecond,
		fleetBuilder: builder,
	}
}

func waitForStatus(t *testing.T, base, name string, cond func(fleetops.Status) bool) fleetops.Status {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st fleetops.Status
		code := getJSON(t, base+"/v1/fleets/"+name, &st)
		if code == http.StatusOK && cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet %s never reached the wanted state: %+v (status %d)", name, st, code)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// TestFleetRegisterLifecycle drives the registration API end to end:
// register, observe epochs advance, list, duplicate conflict, bad
// requests, deregister.
func TestFleetRegisterLifecycle(t *testing.T) {
	_, ts := newTestServer(t, fastFleetConfig(testFleetBuilder(0.5)))

	var st fleetops.Status
	if code := postJSON(t, ts.URL+"/v1/fleets", `{"name":"pop-a","epochs_per_tick":2}`, &st); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	if st.Name != "pop-a" || st.Fleet != "penelope" || st.State != fleetops.StateActive {
		t.Fatalf("registered status = %+v", st)
	}

	// The population ages without any further requests.
	waitForStatus(t, ts.URL, "pop-a", func(st fleetops.Status) bool { return st.Epoch >= 2 })

	if code := postJSON(t, ts.URL+"/v1/fleets", `{"name":"pop-a"}`, nil); code != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", code)
	}
	for body, why := range map[string]string{
		`{"name":"Bad Name"}`:                         "invalid name",
		`{"name":"x","fleet":"warp"}`:                 "unknown fleet",
		`{"name":"x","epochs_per_tick":-1}`:           "negative epochs per tick",
		`{"name":"x","alerts":{"duty_tolerance":-1}}`: "negative threshold",
	} {
		if code := postJSON(t, ts.URL+"/v1/fleets", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", why, code)
		}
	}

	var list struct {
		Fleets []fleetops.Status `json:"fleets"`
	}
	if code := getJSON(t, ts.URL+"/v1/fleets", &list); code != http.StatusOK || len(list.Fleets) != 1 {
		t.Fatalf("list = %d %+v", code, list)
	}

	resp, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/fleets/pop-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", res.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/fleets/pop-a", nil); code != http.StatusNotFound {
		t.Fatalf("deregistered fleet still served: status %d", code)
	}
	// Its event stream 404s instead of hanging forever.
	if code := getJSON(t, ts.URL+"/v1/fleets/pop-a/events.ndjson?max=1", nil); code != http.StatusNotFound {
		t.Fatalf("deregistered fleet stream: status %d, want 404", code)
	}
}

// readNDJSON reads up to max events from an events.ndjson stream.
func readNDJSON(t *testing.T, url string) []fleetops.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []fleetops.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev fleetops.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events
}

// TestFleetEventStreamNDJSONResume streams a fleet's epoch events over
// NDJSON with ?max, then resumes from the last seen sequence number via
// ?after and checks the continuation starts exactly one past it.
func TestFleetEventStreamNDJSONResume(t *testing.T) {
	_, ts := newTestServer(t, fastFleetConfig(testFleetBuilder(1)))
	if code := postJSON(t, ts.URL+"/v1/fleets", `{"name":"pop"}`, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}

	first := readNDJSON(t, ts.URL+"/v1/fleets/pop/events.ndjson?max=4")
	if len(first) != 4 {
		t.Fatalf("got %d events, want 4", len(first))
	}
	for i, ev := range first {
		if ev.Seq != uint64(i+1) || ev.Topic != "fleet/pop" {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	// The first event is the registration state event; epochs follow.
	if first[0].Type != "state" || first[1].Type != "epoch" {
		t.Fatalf("event types = %s, %s; want state then epoch", first[0].Type, first[1].Type)
	}

	last := first[len(first)-1].Seq
	resumed := readNDJSON(t, fmt.Sprintf("%s/v1/fleets/pop/events.ndjson?after=%d&max=3", ts.URL, last))
	if len(resumed) != 3 {
		t.Fatalf("resume got %d events, want 3", len(resumed))
	}
	if resumed[0].Seq != last+1 {
		t.Fatalf("resume started at seq %d, want %d (gapless continuation)", resumed[0].Seq, last+1)
	}

	// Bad stream parameters are rejected.
	if code := getJSON(t, ts.URL+"/v1/fleets/pop/events.ndjson?max=0", nil); code != http.StatusBadRequest {
		t.Fatalf("max=0: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/fleets/pop/events.ndjson?after=x", nil); code != http.StatusBadRequest {
		t.Fatalf("after=x: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/fleets/nope/events.ndjson?max=1", nil); code != http.StatusNotFound {
		t.Fatalf("unknown fleet stream: status %d, want 404", code)
	}
}

// TestFleetEventStreamSSE checks the SSE framing: id/event/data lines
// per frame, with the sequence number as the resumable id, honoring the
// Last-Event-ID request header.
func TestFleetEventStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, fastFleetConfig(testFleetBuilder(1)))
	if code := postJSON(t, ts.URL+"/v1/fleets", `{"name":"pop"}`, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	// Let a couple of epochs accumulate in the history ring.
	waitForStatus(t, ts.URL, "pop", func(st fleetops.Status) bool { return st.Epoch >= 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/fleets/pop/events?max=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1") // skip the registration state event
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var ids, types, datas []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			ids = append(ids, strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			types = append(types, strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "data: "):
			datas = append(datas, strings.TrimPrefix(line, "data: "))
		}
	}
	if len(ids) != 2 || len(types) != 2 || len(datas) != 2 {
		t.Fatalf("frames = %v / %v / %v, want 2 complete frames", ids, types, datas)
	}
	if ids[0] != "2" {
		t.Fatalf("first frame id = %s, want 2 (Last-Event-ID resume past seq 1)", ids[0])
	}
	if types[0] != "epoch" {
		t.Fatalf("first frame type = %s, want epoch", types[0])
	}
	var ev fleetops.Event
	if err := json.Unmarshal([]byte(datas[0]), &ev); err != nil {
		t.Fatalf("frame data not JSON: %v", err)
	}
	if ev.Seq != 2 || ev.Topic != "fleet/pop" {
		t.Fatalf("frame payload = %+v", ev)
	}
}

// TestSweepEventStream checks sweeps publish per-point events plus a
// terminal done event on their own topic, replayable after completion.
func TestSweepEventStream(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})

	var resp struct {
		SweepID string `json:"sweep_id"`
		Events  string `json:"events"`
		Jobs    []Job  `json:"jobs"`
	}
	body := `{"experiments":["fig5"],"trace_lengths":[3000,4000],"trace_strides":[60]}`
	if code := postJSON(t, ts.URL+"/v1/sweeps", body, &resp); code != http.StatusAccepted {
		t.Fatalf("sweep: status %d", code)
	}
	if resp.SweepID == "" || !strings.Contains(resp.Events, resp.SweepID) {
		t.Fatalf("sweep response missing stream pointers: %+v", resp)
	}
	for _, j := range resp.Jobs {
		pollJob(t, ts.URL, j.ID)
	}

	// All events sit in the history ring: 2 points + 1 done.
	events := readNDJSON(t, fmt.Sprintf("%s/v1/sweeps/%s/events.ndjson?max=3", ts.URL, resp.SweepID))
	points, dones := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case "point":
			points++
			var job Job
			if err := json.Unmarshal(ev.Data, &job); err != nil {
				t.Fatalf("point payload: %v", err)
			}
			if job.SweepID != resp.SweepID || job.State != StateDone {
				t.Fatalf("point job = %+v", job)
			}
		case "done":
			dones++
			var d struct {
				SweepID string `json:"sweep_id"`
				Total   int    `json:"total"`
				Failed  int    `json:"failed"`
			}
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				t.Fatalf("done payload: %v", err)
			}
			if d.Total != 2 || d.Failed != 0 {
				t.Fatalf("done event = %+v", d)
			}
		}
	}
	if points != 2 || dones != 1 {
		t.Fatalf("saw %d points and %d done events, want 2 and 1", points, dones)
	}
	if code := getJSON(t, ts.URL+"/v1/sweeps/nope/events.ndjson?max=1", nil); code != http.StatusNotFound {
		t.Fatalf("unknown sweep stream: status %d, want 404", code)
	}
}

// TestSweepTopicExpiresAfterRetention checks a finished sweep's bus
// topic is dropped once its retention (shortened here through the
// sweepRetention seam) passes, so a long-lived server does not
// accumulate one topic (and history ring) per sweep forever.
func TestSweepTopicExpiresAfterRetention(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:        2,
		sweepRetention: 30 * time.Millisecond,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})

	var resp struct {
		SweepID string `json:"sweep_id"`
		Jobs    []Job  `json:"jobs"`
	}
	body := `{"experiments":["fig5"],"trace_lengths":[3000,4000],"trace_strides":[60]}`
	if code := postJSON(t, ts.URL+"/v1/sweeps", body, &resp); code != http.StatusAccepted {
		t.Fatalf("sweep: status %d", code)
	}
	for _, j := range resp.Jobs {
		pollJob(t, ts.URL, j.ID)
	}
	waitFor(t, func() bool { return !s.bus.HasTopic(sweepTopic(resp.SweepID)) })
	// The expired stream 404s like an unknown sweep instead of idling.
	if code := getJSON(t, fmt.Sprintf("%s/v1/sweeps/%s/events.ndjson?max=1", ts.URL, resp.SweepID), nil); code != http.StatusNotFound {
		t.Fatalf("expired sweep stream: status %d, want 404", code)
	}
}

// TestJobsListing covers GET /v1/jobs: state/client filters, newest
// first, totals, limits, and bad parameters.
func TestJobsListing(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 1,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			if o.TraceLength >= 9000 {
				<-gate // hold late jobs in queued/running
			}
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})
	defer close(gate)

	var first Job
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","client":"ana","options":{"trace_length":1000}}`, &first)
	pollJob(t, ts.URL, first.ID)
	for i, client := range []string{"ana", "bob", "bob"} {
		postJSON(t, ts.URL+"/v1/jobs",
			fmt.Sprintf(`{"experiment":"fig6","client":%q,"options":{"trace_length":%d}}`, client, 9000+i), nil)
	}

	var all struct {
		Jobs  []Job `json:"jobs"`
		Total int   `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &all); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if all.Total != 4 || len(all.Jobs) != 4 {
		t.Fatalf("total = %d, page = %d, want 4/4", all.Total, len(all.Jobs))
	}
	for i := 1; i < len(all.Jobs); i++ {
		if jobSeq(all.Jobs[i-1].ID) <= jobSeq(all.Jobs[i].ID) {
			t.Fatalf("listing not newest-first: %s before %s", all.Jobs[i-1].ID, all.Jobs[i].ID)
		}
	}

	var done struct {
		Jobs  []Job `json:"jobs"`
		Total int   `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?state=done", &done); code != http.StatusOK || done.Total != 1 {
		t.Fatalf("state=done: status %d, total %d, want 1", code, done.Total)
	}
	if done.Jobs[0].ID != first.ID {
		t.Fatalf("state=done returned %s, want %s", done.Jobs[0].ID, first.ID)
	}

	var bobs struct {
		Jobs  []Job `json:"jobs"`
		Total int   `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?client=bob", &bobs); code != http.StatusOK || bobs.Total != 2 {
		t.Fatalf("client=bob: status %d, total %d, want 2", code, bobs.Total)
	}
	for _, j := range bobs.Jobs {
		if j.Client != "bob" {
			t.Fatalf("client filter leaked job %+v", j)
		}
	}

	var limited struct {
		Jobs  []Job `json:"jobs"`
		Total int   `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?limit=2", &limited); code != http.StatusOK {
		t.Fatalf("limit=2: status %d", code)
	}
	if len(limited.Jobs) != 2 || limited.Total != 4 {
		t.Fatalf("limit=2 returned %d jobs with total %d, want 2 with total 4", len(limited.Jobs), limited.Total)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs?state=sideways", nil); code != http.StatusBadRequest {
		t.Fatalf("bad state filter: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?limit=0", nil); code != http.StatusBadRequest {
		t.Fatalf("limit=0: status %d, want 400", code)
	}
}

// TestRetryAfterNeverZero pins the backpressure clamp: however small
// the wait estimate, the Retry-After header is at least one second —
// "Retry-After: 0" would tell clients to hammer a shedding server.
func TestRetryAfterNeverZero(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 499 * time.Millisecond, time.Second, 3 * time.Second} {
		rec := httptest.NewRecorder()
		setRetryAfter(rec, d)
		got := rec.Header().Get("Retry-After")
		if got == "" || got == "0" {
			t.Fatalf("setRetryAfter(%v) = %q, want >= 1", d, got)
		}
	}
	// End to end: a rate-limited submission carries the clamped header.
	_, ts := newTestServer(t, Config{
		Workers: 1, Rate: 0.0001, Burst: 1,
		runner: func(context.Context, string, experiments.Options) (experiments.Result, error) {
			return fakeResult{Name: "fig6"}, nil
		},
	})
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","client":"greedy"}`, nil)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"fig6","client":"greedy","options":{"trace_length":2000}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a clamped positive integer", ra)
	}
}

// TestFleetQuarantineVisible drives a population whose engine cannot be
// built into quarantine and checks it shows up in /readyz and /metrics
// without affecting healthy populations or overall readiness.
func TestFleetQuarantineVisible(t *testing.T) {
	healthy := testFleetBuilder(1)
	cfg := fastFleetConfig(func(reg fleetops.Registration) (lifetime.Config, error) {
		if reg.Name == "doomed" {
			return lifetime.Config{}, fmt.Errorf("no such workload")
		}
		return healthy(reg)
	})
	_, ts := newTestServer(t, cfg)

	for _, name := range []string{"doomed", "healthy"} {
		if code := postJSON(t, ts.URL+"/v1/fleets", fmt.Sprintf(`{"name":%q}`, name), nil); code != http.StatusCreated {
			t.Fatalf("register %s: status %d", name, code)
		}
	}
	waitForStatus(t, ts.URL, "doomed", func(st fleetops.Status) bool {
		return st.State == fleetops.StateQuarantined
	})
	waitForStatus(t, ts.URL, "healthy", func(st fleetops.Status) bool { return st.Epoch >= 1 })

	var ready struct {
		Status            string         `json:"status"`
		Fleets            fleetops.Stats `json:"fleets"`
		QuarantinedFleets []string       `json:"quarantined_fleets"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("quarantined fleet degraded readiness: status %d", code)
	}
	if len(ready.QuarantinedFleets) != 1 || ready.QuarantinedFleets[0] != "doomed" {
		t.Fatalf("readyz quarantined_fleets = %v, want [doomed]", ready.QuarantinedFleets)
	}
	if ready.Fleets.Populations != 2 || ready.Fleets.Quarantined != 1 {
		t.Fatalf("readyz fleets = %+v", ready.Fleets)
	}

	var m Metrics
	if code := getJSON(t, ts.URL+"/metrics.json", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Fleet.Scheduler.Quarantined != 1 || m.Fleet.Scheduler.TickFailures < 2 {
		t.Fatalf("metrics fleet scheduler = %+v", m.Fleet.Scheduler)
	}
	if len(m.Fleet.Quarantined) != 1 || m.Fleet.Quarantined[0] != "doomed" {
		t.Fatalf("metrics quarantined = %v", m.Fleet.Quarantined)
	}
	if m.Fleet.Bus.Published == 0 {
		t.Fatal("bus metrics empty despite epoch events")
	}
}

// testSink is an alert Sink that fails the first failFirst attempts of
// every alert and records the deliveries that succeed.
type testSink struct {
	failFirst int
	mu        sync.Mutex
	attempts  map[string]int
	delivered []fleetops.Alert
}

func (s *testSink) Name() string { return "test-sink" }

func (s *testSink) Deliver(_ context.Context, a fleetops.Alert) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attempts == nil {
		s.attempts = make(map[string]int)
	}
	if s.attempts[a.ID]++; s.attempts[a.ID] <= s.failFirst {
		return fmt.Errorf("test-sink: injected failure of %s", a.ID)
	}
	s.delivered = append(s.delivered, a)
	return nil
}

func (s *testSink) Delivered() []fleetops.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]fleetops.Alert(nil), s.delivered...)
}

// TestFleetAlertsDeliveredDeterministically registers a population with
// alert rules against a sink that fails every first attempt and checks
// fired alerts traverse the hardened pipeline with stable accounting.
func TestFleetAlertsDeliveredDeterministically(t *testing.T) {
	sink := &testSink{failFirst: 1}
	cfg := fastFleetConfig(testFleetBuilder(1))
	cfg.alertSink = sink
	_, ts := newTestServer(t, cfg)

	// A threshold low enough that aging crosses it quickly.
	body := `{"name":"pop","alerts":{"p99_guardband":0.0001}}`
	if code := postJSON(t, ts.URL+"/v1/fleets", body, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(sink.Delivered()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alert never delivered")
		}
		time.Sleep(3 * time.Millisecond)
	}
	got := sink.Delivered()[0]
	if got.Rule != fleetops.RuleP99Guardband || got.Fleet != "pop" {
		t.Fatalf("delivered alert = %+v", got)
	}

	var m Metrics
	if code := getJSON(t, ts.URL+"/metrics.json", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Fleet.Alerts.Fired == 0 {
		t.Fatalf("alert metrics = %+v", m.Fleet.Alerts)
	}
	if m.Fleet.Delivery == nil || m.Fleet.Delivery.Delivered == 0 || m.Fleet.Delivery.Retries == 0 {
		t.Fatalf("delivery metrics = %+v (FailFirst=1 forces one retry)", m.Fleet.Delivery)
	}
}

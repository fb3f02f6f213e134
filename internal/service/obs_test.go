package service

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// get fetches url with optional headers and returns status, body and
// the Content-Type header.
func get(t *testing.T, url string, headers map[string]string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("Content-Type")
}

// TestMetricsContentNegotiation pins the format contract: GET /metrics
// defaults to Prometheus text, Accept: application/json returns the
// JSON payload byte-identical to /metrics.json.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, text, ctype := get(t, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if ctype != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ctype, obs.PromContentType)
	}
	for _, family := range []string{
		"# TYPE penelope_jobs_submitted_total counter",
		"# TYPE penelope_job_seconds histogram",
		"# TYPE penelope_job_queue_wait_seconds histogram",
		"# TYPE penelope_queue_depth gauge",
		"# TYPE penelope_fleet_tick_seconds histogram",
		"# TYPE penelope_goroutines gauge",
	} {
		if !strings.Contains(string(text), family) {
			t.Errorf("exposition missing %q", family)
		}
	}
	// No store configured: no store families at all.
	if strings.Contains(string(text), "penelope_store_") {
		t.Error("in-memory server exposes store families")
	}

	// The payload carries uptime in whole seconds, so a pair of fetches
	// straddling a second boundary can legitimately differ; retry the
	// byte comparison a couple of times before calling it a format bug.
	var viaAccept, viaPath []byte
	for attempt := 0; attempt < 3; attempt++ {
		var code int
		var ctype string
		code, viaAccept, ctype = get(t, ts.URL+"/metrics", map[string]string{"Accept": "application/json"})
		if code != http.StatusOK || ctype != "application/json" {
			t.Fatalf("GET /metrics (Accept json): status %d, Content-Type %q", code, ctype)
		}
		code, viaPath, _ = get(t, ts.URL+"/metrics.json", nil)
		if code != http.StatusOK {
			t.Fatalf("GET /metrics.json: status %d", code)
		}
		if string(viaAccept) == string(viaPath) {
			break
		}
	}
	if string(viaAccept) != string(viaPath) {
		t.Fatalf("Accept-negotiated JSON differs from /metrics.json:\n%s\nvs\n%s", viaAccept, viaPath)
	}
}

// TestMetricsJSONGolden pins the JSON metrics payload of a fresh,
// fixed-config server byte-for-byte against a golden file, so format
// drift against pre-observability consumers fails loudly. Refresh with
// go test ./internal/service -run TestMetricsJSONGolden -update.
func TestMetricsJSONGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	code, body, _ := get(t, ts.URL+"/metrics.json", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics.json: status %d", code)
	}
	golden := filepath.Join("testdata", "metrics_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("JSON metrics drifted from golden:\n got: %s\nwant: %s", body, want)
	}
}

// TestJobTraceLifecycle verifies a completed leader job serves a trace
// whose spans are monotonic and gap-free from admit to done, covering
// the queue wait and the run.
func TestJobTraceLifecycle(t *testing.T) {
	runner := func(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		time.Sleep(10 * time.Millisecond)
		return fakeResult{Name: experiment, N: 1}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, runner: runner})

	var job Job
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig1"}`, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollJob(t, ts.URL, job.ID)

	var trace obs.TraceSnapshot
	if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/trace", &trace); code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	if !trace.Done {
		t.Fatal("trace of a finished job is not done")
	}
	if trace.ID != job.ID || trace.Component != "job" {
		t.Fatalf("bad trace identity: %+v", trace)
	}
	names := make([]string, len(trace.Spans))
	var cursor int64
	for i, span := range trace.Spans {
		names[i] = span.Name
		if span.StartNS != cursor {
			t.Fatalf("span %q starts at %d, want %d (gap or overlap)", span.Name, span.StartNS, cursor)
		}
		if span.DurationNS < 0 {
			t.Fatalf("span %q has negative duration", span.Name)
		}
		cursor = span.StartNS + span.DurationNS
	}
	if cursor != trace.DurationNS {
		t.Fatalf("spans end at %d, trace duration %d", cursor, trace.DurationNS)
	}
	want := []string{"admit", "queue-wait", "run", "done"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("span names = %v, want %v", names, want)
	}
	var run obs.SpanSnapshot
	for _, span := range trace.Spans {
		if span.Name == "run" {
			run = span
		}
	}
	if run.DurationNS < (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("run span too short for a 10ms runner: %dns", run.DurationNS)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/no-such-job/trace", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", code)
	}
}

// TestDebugTraces exercises the component ring endpoint.
func TestDebugTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	var job Job
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig1"}`, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollJob(t, ts.URL, job.ID)

	var listing struct {
		Components []string `json:"components"`
	}
	if code := getJSON(t, ts.URL+"/v1/debug/traces", &listing); code != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces: status %d", code)
	}
	found := false
	for _, c := range listing.Components {
		if c == "job" {
			found = true
		}
	}
	if !found {
		t.Fatalf("components %v missing \"job\"", listing.Components)
	}

	var byComponent struct {
		Component string              `json:"component"`
		Traces    []obs.TraceSnapshot `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/v1/debug/traces?component=job&n=4", &byComponent); code != http.StatusOK {
		t.Fatalf("GET traces by component: status %d", code)
	}
	if len(byComponent.Traces) == 0 {
		t.Fatal("no job traces recorded")
	}

	if code := getJSON(t, ts.URL+"/v1/debug/traces?component=job&n=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad n: status %d, want 400", code)
	}
	// Unknown components are empty, not errors.
	if code := getJSON(t, ts.URL+"/v1/debug/traces?component=nope", &byComponent); code != http.StatusOK {
		t.Fatalf("unknown component: status %d", code)
	}
}

// TestUntrackedClients floods the server with more client ids than the
// tracked bound and checks the overflow is counted in both formats.
func TestUntrackedClients(t *testing.T) {
	runner := func(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		return fakeResult{Name: experiment, N: 1}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 2, runner: runner})

	const extra = 7
	for i := 0; i < maxTrackedClients+extra; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			strings.NewReader(`{"experiment":"fig1"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-Id", fmt.Sprintf("client-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}

	var m Metrics
	if code := getJSON(t, ts.URL+"/metrics.json", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics.json: status %d", code)
	}
	if m.UntrackedClients != extra {
		t.Fatalf("untracked_clients = %d, want %d", m.UntrackedClients, extra)
	}
	other, ok := m.Clients["~other"]
	if !ok || other.Admitted != extra {
		t.Fatalf("~other cell = %+v (ok=%v), want %d admitted", other, ok, extra)
	}
	// The raw JSON carries the field (it is non-zero here).
	code, body, _ := get(t, ts.URL+"/metrics.json", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"untracked_clients"`) {
		t.Fatal("untracked_clients missing from JSON payload")
	}

	_, text, _ := get(t, ts.URL+"/metrics", nil)
	wantLine := fmt.Sprintf("penelope_untracked_clients_total %d", extra)
	if !strings.Contains(string(text), wantLine) {
		t.Fatalf("exposition missing %q", wantLine)
	}
}

// TestStoreInstrumentsObserve checks a persisted job shows up in the
// store's put histogram and the job trace gains a store-write span.
func TestStoreInstrumentsObserve(t *testing.T) {
	runner := func(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		return fakeResult{Name: experiment, N: 1}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, runner: runner, DataDir: t.TempDir()})

	var job Job
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig1"}`, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollJob(t, ts.URL, job.ID)

	_, text, _ := get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(string(text), "penelope_store_put_seconds_count 1") {
		t.Fatal("store put histogram did not observe the persisted result")
	}

	var trace obs.TraceSnapshot
	if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/trace", &trace); code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	var names []string
	for _, span := range trace.Spans {
		names = append(names, span.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{"admit", "queue-wait", "run", "store-write", "done"}) {
		t.Fatalf("persisted job spans = %v", names)
	}
}

// TestObserveWaitRaisesRetryAfter verifies the measured queue-wait EWMA
// lifts the Retry-After hint when waits exceed the service-time model.
func TestObserveWaitRaisesRetryAfter(t *testing.T) {
	b := newBackoffController()
	base := b.retryAfter(0, 4)
	b.observeWait(10 * time.Second)
	if got := b.retryAfter(0, 4); got < 10*time.Second {
		t.Fatalf("retryAfter = %v after observing 10s waits (was %v)", got, base)
	}
	// The model path still wins when it predicts the longer wait.
	b2 := newBackoffController()
	b2.observe(2 * time.Second)
	b2.observeWait(10 * time.Millisecond)
	if got := b2.retryAfter(100, 2); got < 100*time.Second {
		t.Fatalf("retryAfter = %v, want the service-time model's estimate", got)
	}
}

// TestMetricsJSONOmitsNewFieldsWhenZero guards byte-compat directly:
// a fresh server's JSON payload must not mention any of the fields
// this layer added.
func TestMetricsJSONOmitsNewFieldsWhenZero(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, body, _ := get(t, ts.URL+"/metrics.json", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics.json: status %d", code)
	}
	if strings.Contains(string(body), "untracked_clients") {
		t.Fatal("zero untracked_clients serialized; breaks byte-compat")
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
}

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/store"
)

// postRaw posts JSON and returns the raw response (caller closes the
// body) so tests can inspect headers like Retry-After.
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// okRunner is an instant success runner for tests that exercise the
// control plane rather than the simulation.
func okRunner(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
	return fakeResult{Name: experiment, N: o.TraceLength}, nil
}

// TestSubmitAfterClose is the regression test for the submit-after-Close
// panic: the old pool pushed onto a closed channel and took the whole
// process down. Now the submission fails cleanly with a shutting-down
// error, and Close is idempotent.
func TestSubmitAfterClose(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, runner: okRunner})
	s.Close()
	s.Close() // idempotent

	var job Job
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig4"}`, &job); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: status %d, want 503", code)
	}
	if job.State != StateFailed || !strings.Contains(job.Error, "shutting down") {
		t.Fatalf("submit after close: job = %+v, want failed with shutting-down error", job)
	}
	// The operational endpoints stay alive through shutdown.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz during shutdown: status %d", code)
	}
	var r struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &r); code != http.StatusServiceUnavailable || r.Status != "draining" {
		t.Errorf("readyz during shutdown = %d %q, want 503 draining", code, r.Status)
	}
}

// TestPanicRecovered checks a panicking driver fails only its own job:
// the panic is recovered into the job error, counted, and the server
// keeps serving.
func TestPanicRecovered(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			if o.TraceLength == 666 {
				panic("simulated driver bug")
			}
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})

	var job Job
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":666}}`, &job)
	done := pollJob(t, ts.URL, job.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "panicked") ||
		!strings.Contains(done.Error, "simulated driver bug") {
		t.Fatalf("panicked job = %+v, want failed with panic message", done)
	}

	// The server survives and the next job runs normally.
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":1000}}`, &job)
	if done := pollJob(t, ts.URL, job.ID); done.State != StateDone {
		t.Fatalf("job after panic: %+v", done)
	}
	if m := s.metrics(); m.Jobs.PanicsRecovered != 1 {
		t.Errorf("panics_recovered = %d, want 1", m.Jobs.PanicsRecovered)
	}
}

// TestNonTransientNotRetried checks a failing runner is invoked exactly
// once: simulations are deterministic, so re-running one that errored
// would only fail again and burn a worker.
func TestNonTransientNotRetried(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 1,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			calls.Add(1)
			return nil, fmt.Errorf("deterministic failure")
		},
	})

	var job Job
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig4"}`, &job)
	if done := pollJob(t, ts.URL, job.ID); done.State != StateFailed {
		t.Fatalf("job = %+v, want failed", done)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("runner called %d times, want 1", got)
	}
}

// TestJobTimeout checks the per-job timeout: a hung driver fails its
// job (and only its job) after JobTimeout.
func TestJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:    2,
		JobTimeout: 30 * time.Millisecond,
		runner: func(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			if o.TraceLength == 4242 {
				<-ctx.Done() // hang until the timeout fires
				return nil, ctx.Err()
			}
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})

	var hung, ok Job
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":4242}}`, &hung)
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":1000}}`, &ok)
	if done := pollJob(t, ts.URL, hung.ID); done.State != StateFailed || !strings.Contains(done.Error, "timeout") {
		t.Fatalf("hung job = %+v, want timeout failure", done)
	}
	if done := pollJob(t, ts.URL, ok.ID); done.State != StateDone {
		t.Fatalf("unrelated job caught in timeout: %+v", done)
	}
	if m := s.metrics(); m.Jobs.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", m.Jobs.Timeouts)
	}
}

// TestReadinessDegrades checks the liveness/readiness split: a queue
// over its high-water mark flips /readyz to 503 degraded (with the
// queue depth in the body) while /healthz stays 200, and readiness
// recovers when the queue drains.
func TestReadinessDegrades(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 4, // high water at 3
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			<-gate
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})

	var jobs []Job
	for i := 0; i < 4; i++ {
		var job Job
		body := fmt.Sprintf(`{"experiment":"fig6","options":{"trace_length":%d}}`, 1000+i)
		if code := postJSON(t, ts.URL+"/v1/jobs", body, &job); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		jobs = append(jobs, job)
		if i == 0 {
			// Let the worker pick the first job up (and park on the
			// gate) so the later queue-depth checks are deterministic:
			// three queued jobs behind one running one.
			waitFor(t, func() bool { return s.pool.queueDepth() == 0 })
		}
	}

	var r struct {
		Status string      `json:"status"`
		Queue  QueueStatus `json:"queue"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &r); code != http.StatusServiceUnavailable || r.Status != "degraded" {
		t.Fatalf("readyz under load = %d %q, want 503 degraded", code, r.Status)
	}
	if r.Queue.Depth < 3 || r.Queue.Capacity != 4 || r.Queue.HighWater != 3 {
		t.Errorf("queue status = %+v, want depth >= 3 of 4 (hw 3)", r.Queue)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz under load: status %d, want 200 (liveness is not readiness)", code)
	}

	close(gate)
	for _, j := range jobs {
		pollJob(t, ts.URL, j.ID)
	}
	if code := getJSON(t, ts.URL+"/readyz", &r); code != http.StatusOK || r.Status != "ready" {
		t.Errorf("readyz after drain = %d %q, want 200 ready", code, r.Status)
	}
}

// TestSaturationRetryAfter checks backpressure at the queue bound: a
// saturated server answers 503 with a Retry-After hint instead of
// queueing without bound or hanging.
func TestSaturationRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			<-gate
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})

	// One running (off-queue) plus two queued saturates the pool. The
	// wait after the first submission pins the depth the admission
	// checks observe, keeping them below the shedding band.
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"experiment":"fig6","options":{"trace_length":%d}}`, 2000+i)
		if code := postJSON(t, ts.URL+"/v1/jobs", body, nil); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		if i == 0 {
			waitFor(t, func() bool { return s.pool.queueDepth() == 0 })
		}
	}

	resp := postRaw(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":9999}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: status %d, want 503", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}

	// Sweeps saturate against the same backpressure.
	resp = postRaw(t, ts.URL+"/v1/sweeps", `{"experiments":["fig6"],"trace_lengths":[100,200]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("saturated sweep: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestTwoClientFairness is the acceptance scenario for per-client
// admission: a flooding client exhausts its own rate budget and gets
// 429s, while a well-behaved client's submissions keep flowing.
func TestTwoClientFairness(t *testing.T) {
	s, err := New(Config{Workers: 2, Rate: 1, Burst: 2, runner: okRunner})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(5000, 0)
	s.limiter.now = func() time.Time { return now }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	submit := func(client string, length int) int {
		body := fmt.Sprintf(`{"experiment":"fig6","client":%q,"options":{"trace_length":%d}}`, client, length)
		resp := postRaw(t, ts.URL+"/v1/jobs", body)
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if retry, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || retry < 1 {
				t.Errorf("429 without usable Retry-After: %q", resp.Header.Get("Retry-After"))
			}
		}
		return resp.StatusCode
	}

	// The flooder burns its burst, then gets throttled.
	flooderOK, flooderThrottled := 0, 0
	for i := 0; i < 6; i++ {
		switch code := submit("flooder", 3000+i); code {
		case http.StatusAccepted:
			flooderOK++
		case http.StatusTooManyRequests:
			flooderThrottled++
		default:
			t.Fatalf("flooder submit %d: status %d", i, code)
		}
	}
	if flooderOK != 2 || flooderThrottled != 4 {
		t.Fatalf("flooder: %d accepted / %d throttled, want 2/4 (burst 2)", flooderOK, flooderThrottled)
	}

	// The well-behaved client is untouched by the flooder's empty bucket.
	for i := 0; i < 2; i++ {
		if code := submit("polite", 4000+i); code != http.StatusAccepted {
			t.Fatalf("polite submit %d: status %d, want 202", i, code)
		}
	}

	// Time refills the flooder's bucket.
	now = now.Add(2 * time.Second)
	if code := submit("flooder", 3100); code != http.StatusAccepted {
		t.Fatalf("flooder after refill: status %d, want 202", code)
	}

	m := s.metrics()
	fl, pol := m.Clients["flooder"], m.Clients["polite"]
	if fl.Admitted != 3 || fl.Throttled != 4 {
		t.Errorf("flooder counters = %+v, want 3 admitted / 4 throttled", fl)
	}
	if pol.Admitted != 2 || pol.Throttled != 0 {
		t.Errorf("polite counters = %+v, want 2 admitted / 0 throttled", pol)
	}
	if m.Jobs.Throttled != 4 {
		t.Errorf("total throttled = %d, want 4", m.Jobs.Throttled)
	}
}

// TestCrashRecoveryStoreHits rebuilds a Server over the same data
// directory — the unit-test shape of kill -9 + restart — and requires
// completed results to be served from disk without re-simulation.
func TestCrashRecoveryStoreHits(t *testing.T) {
	dir := t.TempDir()
	bodies := []string{
		`{"experiment":"fig6","options":{"trace_length":1000}}`,
		`{"experiment":"fig6","options":{"trace_length":2000}}`,
		`{"experiment":"fig4"}`,
	}

	var runs atomic.Int64
	s1, err := New(Config{Workers: 2, DataDir: dir, runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		runs.Add(1)
		return fakeResult{Name: experiment, N: o.TraceLength}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	keys := make([]string, len(bodies))
	payloads := make([][]byte, len(bodies))
	for i, body := range bodies {
		var job Job
		if code := postJSON(t, ts1.URL+"/v1/jobs", body, &job); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		if done := pollJob(t, ts1.URL, job.ID); done.State != StateDone {
			t.Fatalf("job failed: %+v", done)
		}
		keys[i] = job.ResultKey
		resp := postRawGet(t, ts1.URL+"/v1/results/"+job.ResultKey)
		payloads[i] = resp
	}
	if got := runs.Load(); got != int64(len(bodies)) {
		t.Fatalf("phase 1 ran %d simulations, want %d", got, len(bodies))
	}
	// Kill -9 semantics: the first process is abandoned, never Closed.
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir, runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		t.Errorf("restart re-simulated %s despite a persisted result", experiment)
		return fakeResult{Name: experiment}, nil
	}})
	for i, body := range bodies {
		var job Job
		if code := postJSON(t, ts2.URL+"/v1/jobs", body, &job); code != http.StatusAccepted {
			t.Fatalf("resubmit: status %d", code)
		}
		if job.State != StateDone || !job.CacheHit {
			t.Fatalf("restarted server did not serve %s from disk: %+v", body, job)
		}
		if job.ResultKey != keys[i] {
			t.Errorf("result key changed across restart: %s vs %s", job.ResultKey, keys[i])
		}
		got := postRawGet(t, ts2.URL+"/v1/results/"+job.ResultKey)
		if string(got) != string(payloads[i]) {
			t.Errorf("restart served different bytes for %s", keys[i])
		}
	}
	m := s2.metrics()
	if m.Store == nil || m.Store.Hits < uint64(len(bodies)) {
		t.Errorf("store metrics after restart = %+v, want >= %d hits", m.Store, len(bodies))
	}
}

// postRawGet fetches a URL and returns the body bytes.
func postRawGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCorruptedStoreEntryQuarantined corrupts one persisted result
// between restarts: boot must quarantine it and keep going, the
// corrupted key re-simulates, and intact keys still hit.
func TestCorruptedStoreEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	counting := func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		runs.Add(1)
		return fakeResult{Name: experiment, N: o.TraceLength}, nil
	}
	s1, err := New(Config{Workers: 1, DataDir: dir, runner: counting})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	var corrupt, intact Job
	postJSON(t, ts1.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":1000}}`, &corrupt)
	pollJob(t, ts1.URL, corrupt.ID)
	postJSON(t, ts1.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":2000}}`, &intact)
	pollJob(t, ts1.URL, intact.ID)
	ts1.Close()

	// Truncate one frame mid-payload: the torn-write shape.
	path := filepath.Join(dir, "results", corrupt.ResultKey+".res")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir, runner: counting})
	var job Job
	postJSON(t, ts2.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":2000}}`, &job)
	if job.State != StateDone || !job.CacheHit {
		t.Errorf("intact entry not served from disk: %+v", job)
	}
	postJSON(t, ts2.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":1000}}`, &job)
	if done := pollJob(t, ts2.URL, job.ID); done.State != StateDone || done.CacheHit {
		t.Errorf("corrupted entry should re-simulate: %+v", done)
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("%d simulations total, want 3 (2 initial + 1 re-run of the corrupted key)", got)
	}
	if m := s2.metrics(); m.Store == nil || m.Store.Quarantined != 1 {
		t.Errorf("store metrics = %+v, want 1 quarantined entry", m.Store)
	}
}

// TestBootResumesInterruptedJob checks the generic boot-recovery path: a
// job record left on disk by a dead process is resubmitted at New and
// runs to completion, after which the sidecar is cleaned up.
func TestBootResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	spec, _ := experiments.Lookup("fig4")
	canon := spec.CanonicalOptions(experiments.Options{})
	key := ResultKey("fig4", canon)

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(jobRecord{Key: key, Experiment: "fig4", Options: []byte(`{}`), Client: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutRecord(store.KindJob, key, rec); err != nil {
		t.Fatal(err)
	}

	var runs atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir, runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		runs.Add(1)
		return fakeResult{Name: experiment, N: 1}, nil
	}})

	waitFor(t, func() bool { return s.store.Has(key) })
	if got := runs.Load(); got != 1 {
		t.Errorf("recovery ran %d simulations, want 1", got)
	}
	if m := s.metrics(); m.Jobs.Resumed != 1 {
		t.Errorf("resumed = %d, want 1", m.Jobs.Resumed)
	}
	if recs := s.store.Records(store.KindJob, nil); len(recs) != 0 {
		t.Errorf("job record not cleaned up after completion: %+v", recs)
	}
	// The recovered result is served.
	if code := getJSON(t, ts.URL+"/v1/results/"+key, nil); code != http.StatusOK {
		t.Errorf("recovered result not served: status %d", code)
	}
}

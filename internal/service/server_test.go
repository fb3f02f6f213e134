package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/obs"
)

// fakeResult is a minimal experiments.Result for instrumented runners.
// Its ID must be a real registry id: the server validates experiments
// against the registry before the runner ever sees them.
type fakeResult struct {
	Name string
	N    int
}

func (r fakeResult) ID() string         { return r.Name }
func (r fakeResult) Render(w io.Writer) { fmt.Fprintf(w, "%s %d\n", r.Name, r.N) }

// newTestServer starts an httptest server over a service with the
// given runner (nil = real registry runner).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.buildInfo == nil {
		// Pin the binary identity so golden payloads never depend on the
		// toolchain that ran the tests.
		cfg.buildInfo = &obs.BuildInfo{Version: "(devel)", GoVersion: "gotest", Revision: "0000000"}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts body and decodes the response JSON into out,
// returning the status code.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad response JSON %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad response JSON %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// pollJob polls until the job reaches a terminal state.
func pollJob(t *testing.T, base, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var job Job
		if code := getJSON(t, base+"/v1/jobs/"+id, &job); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if job.State == StateDone || job.State == StateFailed {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitPollFetch drives the primary flow end to end against the
// real registry runner: submit fig1, poll to completion, fetch the
// payload by its content address.
func TestSubmitPollFetch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var job Job
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig1"}`, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if job.Experiment != "fig1" || job.ID == "" || job.ResultKey == "" {
		t.Fatalf("bad job: %+v", job)
	}
	done := pollJob(t, ts.URL, job.ID)
	if done.State != StateDone {
		t.Fatalf("job failed: %+v", done)
	}

	var payload struct {
		Schema     int                 `json:"schema"`
		Experiment string              `json:"experiment"`
		Options    experiments.Options `json:"options"`
		Data       struct {
			LifetimeAt50 float64
		} `json:"data"`
	}
	if code := getJSON(t, ts.URL+"/v1/results/"+job.ResultKey, &payload); code != http.StatusOK {
		t.Fatalf("fetch result: status %d", code)
	}
	if payload.Experiment != "fig1" || payload.Schema != experiments.SchemaVersion {
		t.Errorf("bad envelope: %+v", payload)
	}
	if payload.Data.LifetimeAt50 < 4 {
		t.Errorf("LifetimeAt50 = %v, want >= 4", payload.Data.LifetimeAt50)
	}
	if payload.Options != experiments.DefaultOptions() {
		t.Errorf("options = %+v, want defaults", payload.Options)
	}
}

// TestConcurrentDuplicatesRunOnce submits the same (experiment,
// Options) from many goroutines while the simulation is gated open, and
// checks that exactly one simulation ran — the rest deduplicated
// against the in-flight leader or the completed cache entry.
func TestConcurrentDuplicatesRunOnce(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 4,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			runs.Add(1)
			<-gate
			return fakeResult{Name: experiment, N: 1}, nil
		},
	})

	const n = 24
	jobs := make([]Job, n)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig4","options":{"trace_length":7000}}`, &jobs[i]); code != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, code)
			}
		}(i)
	}
	wg.Wait()
	close(gate)

	key := jobs[0].ResultKey
	hits := 0
	for i := range jobs {
		if jobs[i].ResultKey != key {
			t.Fatalf("job %d key %q != %q: duplicates must share one content address", i, jobs[i].ResultKey, key)
		}
		done := pollJob(t, ts.URL, jobs[i].ID)
		if done.State != StateDone {
			t.Fatalf("job %d failed: %+v", i, done)
		}
		if done.CacheHit {
			hits++
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("%d simulations ran, want exactly 1", got)
	}
	if hits != n-1 {
		t.Errorf("%d jobs marked cache_hit, want %d", hits, n-1)
	}
	m := s.metrics()
	if m.Cache.Misses != 1 || m.Cache.Hits+m.Cache.InflightDedups != n-1 {
		t.Errorf("cache counters %+v, want 1 miss and %d hits+dedups", m.Cache, n-1)
	}

	// A fresh submission after completion is a pure cache hit: done in
	// the submit response itself, no new simulation.
	var again Job
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig4","options":{"trace_length":7000}}`, &again); code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	if again.State != StateDone || !again.CacheHit {
		t.Errorf("resubmission not served from cache: %+v", again)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("resubmission ran a simulation (%d total)", got)
	}
}

// TestSweepGrid fans one sweep out over an Options grid and checks one
// job (and one result) per grid point, with overlapping points
// deduplicated against already-cached results.
func TestSweepGrid(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 4,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			runs.Add(1)
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})

	var resp struct {
		Jobs []Job `json:"jobs"`
	}
	body := `{"experiments":["fig5","fig6"],"trace_lengths":[3000,4000],"trace_strides":[60]}`
	if code := postJSON(t, ts.URL+"/v1/sweeps", body, &resp); code != http.StatusAccepted {
		t.Fatalf("sweep: status %d", code)
	}
	if len(resp.Jobs) != 4 {
		t.Fatalf("sweep returned %d jobs, want one per grid point (4)", len(resp.Jobs))
	}
	keys := map[string]bool{}
	for _, j := range resp.Jobs {
		done := pollJob(t, ts.URL, j.ID)
		if done.State != StateDone {
			t.Fatalf("grid job failed: %+v", done)
		}
		keys[j.ResultKey] = true
		if code := getJSON(t, ts.URL+"/v1/results/"+j.ResultKey, nil); code != http.StatusOK {
			t.Errorf("result %s: status %d", j.ResultKey, code)
		}
	}
	if len(keys) != 4 {
		t.Errorf("sweep produced %d distinct results, want 4", len(keys))
	}
	if got := runs.Load(); got != 4 {
		t.Errorf("%d simulations ran, want 4", got)
	}

	// An overlapping sweep re-uses every cached grid point.
	if code := postJSON(t, ts.URL+"/v1/sweeps", body, &resp); code != http.StatusAccepted {
		t.Fatalf("overlapping sweep: status %d", code)
	}
	for _, j := range resp.Jobs {
		if !j.CacheHit {
			t.Errorf("overlapping sweep job %s not served from cache", j.ID)
		}
	}
	if got := runs.Load(); got != 4 {
		t.Errorf("overlapping sweep re-ran simulations (%d total)", got)
	}
}

// TestOptionsFreeCanonicalized checks that experiments whose drivers
// ignore Options (fig4 et al.) share one cache entry across every
// spelling of the request.
func TestOptionsFreeCanonicalized(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 2,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			runs.Add(1)
			return fakeResult{Name: experiment, N: 1}, nil
		},
	})

	bodies := []string{
		`{"experiment":"fig4"}`,
		`{"experiment":"fig4","options":{"trace_length":4000}}`,
		`{"experiment":"fig4","options":{"trace_length":8000,"trace_stride":3}}`,
	}
	keys := map[string]bool{}
	for _, body := range bodies {
		var job Job
		if code := postJSON(t, ts.URL+"/v1/jobs", body, &job); code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", body, code)
		}
		pollJob(t, ts.URL, job.ID)
		keys[job.ResultKey] = true
	}
	if len(keys) != 1 {
		t.Errorf("options-free experiment produced %d keys, want 1", len(keys))
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("%d simulations ran for an options-free experiment, want 1", got)
	}
}

// finishCacheHits submits n resubmissions of an already completed
// request. Each is a cache hit that finishes inside submit, so n of
// them push every earlier finished job n places through the retention
// ring.
func finishCacheHits(t *testing.T, s *Server, experiment string, o experiments.Options, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		job, err := s.submit("flood", experiment, o, "")
		if err != nil {
			t.Fatal(err)
		}
		if snap := s.snapshot(job); !snap.CacheHit || snap.State != StateDone {
			t.Fatalf("resubmit %d: cache_hit=%v state=%s, want a finished cache hit", i, snap.CacheHit, snap.State)
		}
	}
}

// TestTerminalJobEviction checks that finished jobs beyond the
// retention bound stop being pollable while their results stay
// fetchable from the cache.
func TestTerminalJobEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})

	var first, hot Job
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":1000}}`, &first)
	pollJob(t, ts.URL, first.ID)
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":2000}}`, &hot)
	pollJob(t, ts.URL, hot.ID)
	finishCacheHits(t, s, "fig6", hot.Options, retainJobs)
	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID, nil); code != http.StatusNotFound {
		t.Errorf("evicted job still pollable: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/results/"+first.ResultKey, nil); code != http.StatusOK {
		t.Errorf("evicted job's result gone from cache: status %d", code)
	}
}

// TestJobTraceFollowsJob checks that /v1/jobs/{id}/trace answers
// exactly when /v1/jobs/{id} does: an in-flight job keeps both however
// many later jobs finish, and once it has finished and aged out of the
// retention ring, both answer 404.
func TestJobTraceFollowsJob(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 2,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			if o.TraceLength == 1000 {
				<-release
			}
			return fakeResult{Name: experiment, N: o.TraceLength}, nil
		},
	})

	var held, hot Job
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":1000}}`, &held)
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"trace_length":2000}}`, &hot)
	pollJob(t, ts.URL, hot.ID)
	finishCacheHits(t, s, "fig6", hot.Options, retainJobs+1)

	if code := getJSON(t, ts.URL+"/v1/jobs/"+held.ID, nil); code != http.StatusOK {
		t.Errorf("in-flight job: view status %d, want 200", code)
	}
	var trace obs.TraceSnapshot
	if code := getJSON(t, ts.URL+"/v1/jobs/"+held.ID+"/trace", &trace); code != http.StatusOK {
		t.Errorf("in-flight job: trace status %d, want 200", code)
	} else if trace.ID != held.ID || trace.Done {
		t.Errorf("in-flight job's trace: id %q done %v, want %q still open", trace.ID, trace.Done, held.ID)
	}

	close(release)
	pollJob(t, ts.URL, held.ID)
	finishCacheHits(t, s, "fig6", hot.Options, retainJobs)
	for _, path := range []string{"/v1/jobs/" + held.ID, "/v1/jobs/" + held.ID + "/trace"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("evicted job: GET %s = %d, want 404", path, code)
		}
	}
}

// TestBadRequests exercises the 400/404 paths.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, runner: func(context.Context, string, experiments.Options) (experiments.Result, error) {
		return fakeResult{Name: "fig4"}, nil
	}})

	cases := []struct {
		name, url, body string
		want            int
	}{
		{"malformed JSON", "/v1/jobs", `{"experiment":`, http.StatusBadRequest},
		{"unknown option field", "/v1/jobs", `{"experiment":"fig4","options":{"trace_len":1}}`, http.StatusBadRequest},
		{"wrong option type", "/v1/jobs", `{"experiment":"fig4","options":{"trace_length":"big"}}`, http.StatusBadRequest},
		{"unknown experiment", "/v1/jobs", `{"experiment":"fig99"}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/jobs", `{"experiment":"fig4"} extra`, http.StatusBadRequest},
		{"empty sweep", "/v1/sweeps", `{}`, http.StatusBadRequest},
		{"sweep unknown experiment", "/v1/sweeps", `{"experiments":["nope"]}`, http.StatusBadRequest},
		{"sweep with one bad id", "/v1/sweeps", `{"experiments":["fig6","nope"],"trace_lengths":[4000,8000]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL+tc.url, tc.body, &e); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		} else if e.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}

	// A sweep containing one bad id must reject the whole grid before
	// enqueuing anything: no orphan jobs for the valid points.
	var m Metrics
	if code := getJSON(t, ts.URL+"/metrics.json", &m); code != http.StatusOK {
		t.Fatal("metrics unavailable")
	}
	if m.Jobs.Submitted != 0 {
		t.Errorf("rejected requests enqueued %d jobs, want 0", m.Jobs.Submitted)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/results/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", code)
	}
}

// TestFailedJobsRetry checks that a failed run reports its error, does
// not poison the cache, and a retry can succeed.
func TestFailedJobsRetry(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 1,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("transient failure")
			}
			return fakeResult{Name: experiment, N: 2}, nil
		},
	})

	var job Job
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"table3"}`, &job)
	if done := pollJob(t, ts.URL, job.ID); done.State != StateFailed || done.Error == "" {
		t.Fatalf("want failed job with error, got %+v", done)
	}
	if code := getJSON(t, ts.URL+"/v1/results/"+job.ResultKey, nil); code != http.StatusNotFound {
		t.Errorf("failed result cached: status %d, want 404", code)
	}

	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"table3"}`, &job)
	if done := pollJob(t, ts.URL, job.ID); done.State != StateDone {
		t.Fatalf("retry did not run: %+v", done)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("runner called %d times, want 2", got)
	}
}

// TestHealthzAndMetrics checks the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, runner: func(context.Context, string, experiments.Options) (experiments.Result, error) {
		return fakeResult{Name: "mru"}, nil
	}})

	var h map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, h)
	}

	var job Job
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"mru"}`, &job)
	pollJob(t, ts.URL, job.ID)
	postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"mru"}`, &job)

	var m Metrics
	if code := getJSON(t, ts.URL+"/metrics.json", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Jobs.Submitted != 2 || m.Cache.Misses != 1 || m.Cache.Hits != 1 || m.Cache.Entries != 1 {
		t.Errorf("metrics = %+v, want 2 submitted, 1 miss, 1 hit, 1 entry", m)
	}
	if m.Workers != 1 {
		t.Errorf("workers = %d", m.Workers)
	}
}

// TestRenderedPayloadMatchesRun pins the service payload to the -json
// CLI payload: the same experiment under the same options marshals to
// the same bytes whether it went through the HTTP API or through
// `penelope run -json`.
func TestRenderedPayloadMatchesRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	var job Job
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"table2"}`, &job); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	pollJob(t, ts.URL, job.ID)
	resp, err := http.Get(ts.URL + "/v1/results/" + job.ResultKey)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	res, err := experiments.Run("table2", experiments.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.NewPayload(res, experiments.DefaultOptions()).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("service payload diverges from direct marshal:\n%s\nvs\n%s", got, want)
	}
}

// TestExperimentsEndpoint checks GET /v1/experiments mirrors the
// registry: every id in report order, with descriptions and the
// options-free flag, so clients can discover experiments without
// reading CLI help text.
func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	var resp struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	if code := getJSON(t, ts.URL+"/v1/experiments", &resp); code != http.StatusOK {
		t.Fatalf("GET /v1/experiments: status %d", code)
	}
	specs := experiments.Experiments()
	if len(resp.Experiments) != len(specs) {
		t.Fatalf("listed %d experiments, registry has %d", len(resp.Experiments), len(specs))
	}
	for i, spec := range specs {
		got := resp.Experiments[i]
		if got.ID != spec.ID || got.Description != spec.Description ||
			got.OptionsFree != spec.OptionsFree || got.Fleet != spec.Fleet {
			t.Errorf("entry %d = %+v, want registry spec %q", i, got, spec.ID)
		}
		if got.Description == "" {
			t.Errorf("experiment %s listed without a description", got.ID)
		}
	}
	// The new fleet experiments are discoverable.
	fleet := map[string]bool{}
	for _, e := range resp.Experiments {
		fleet[e.ID] = e.Fleet
	}
	if !fleet["lifetime"] || !fleet["yield"] {
		t.Errorf("fleet experiments missing or unflagged in listing: %v", fleet)
	}
	if fleet["fig6"] {
		t.Error("fig6 flagged as a fleet experiment")
	}
}

// TestSweepFleetAxes fans a sweep over the fleet axes (populations x
// variation sigmas) and checks each grid point becomes a distinct
// cache key while repeated points deduplicate, mirroring the trace-axis
// sweep behaviour.
func TestSweepFleetAxes(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 4,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			runs.Add(1)
			return fakeResult{Name: experiment, N: o.Population}, nil
		},
	})

	var resp struct {
		Jobs []Job `json:"jobs"`
	}
	body := `{"experiments":["lifetime"],"populations":[1000,2000],"variation_sigmas":[0.05,0.1],"years":[3]}`
	if code := postJSON(t, ts.URL+"/v1/sweeps", body, &resp); code != http.StatusAccepted {
		t.Fatalf("sweep: status %d", code)
	}
	if len(resp.Jobs) != 4 {
		t.Fatalf("sweep returned %d jobs, want one per fleet grid point (4)", len(resp.Jobs))
	}
	keys := map[string]bool{}
	for _, j := range resp.Jobs {
		if done := pollJob(t, ts.URL, j.ID); done.State != StateDone {
			t.Fatalf("grid job failed: %+v", done)
		}
		keys[j.ResultKey] = true
	}
	if len(keys) != 4 {
		t.Errorf("fleet sweep produced %d distinct result keys, want 4", len(keys))
	}
	if got := runs.Load(); got != 4 {
		t.Errorf("%d simulations ran, want 4", got)
	}

	// Overlapping fleet sweeps are served from cache.
	if code := postJSON(t, ts.URL+"/v1/sweeps", body, &resp); code != http.StatusAccepted {
		t.Fatalf("overlapping sweep: status %d", code)
	}
	for _, j := range resp.Jobs {
		if !j.CacheHit {
			t.Errorf("overlapping fleet sweep job %s not served from cache", j.ID)
		}
	}
	if got := runs.Load(); got != 4 {
		t.Errorf("overlapping fleet sweep re-ran simulations (%d total)", got)
	}
}

// TestFleetKnobsCanonicalizedForTraceExperiments checks a fleet-axis
// sweep over a trace-only experiment collapses to one cache entry: the
// fleet knobs are irrelevant to fig6, so varying them must not re-run
// the identical simulation under fresh keys.
func TestFleetKnobsCanonicalizedForTraceExperiments(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 2,
		runner: func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			runs.Add(1)
			return fakeResult{Name: experiment}, nil
		},
	})

	var first, second Job
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"population":1000}}`, &first); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollJob(t, ts.URL, first.ID)
	if code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"fig6","options":{"population":2000}}`, &second); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if second.ResultKey != first.ResultKey {
		t.Errorf("fleet knobs leaked into a trace-only key: %s vs %s", first.ResultKey, second.ResultKey)
	}
	if !second.CacheHit {
		t.Error("second fig6 submission with different population missed the cache")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("%d simulations ran, want 1", got)
	}
	// A fleet experiment keeps the knobs: different populations are
	// genuinely different simulations.
	a := experiments.Options{Population: 1000}
	b := experiments.Options{Population: 2000}
	spec, _ := experiments.Lookup("lifetime")
	if spec.CanonicalOptions(a).Key() == spec.CanonicalOptions(b).Key() {
		t.Error("lifetime canonicalization dropped the population knob")
	}
}

// TestCloseDoesNotWaitForRunner closes a server whose one in-flight job
// runs a runner that ignores its context. Close must not wait for it:
// the job fails as shutting down and Close returns well inside
// drainGrace.
func TestCloseDoesNotWaitForRunner(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release) // let the abandoned runner return once the test is done
	s, err := New(Config{
		Workers:         1,
		HistoryInterval: -1,
		runner: func(context.Context, string, experiments.Options) (experiments.Result, error) {
			close(started)
			<-release
			return fakeResult{Name: "fig4"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.submit("tester", "fig4", experiments.Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	start := time.Now()
	s.Close()
	if took := time.Since(start); took > drainGrace/10 {
		t.Fatalf("Close took %v with a runner that ignores ctx, want well under %v", took, drainGrace)
	}
	if snap := s.snapshot(job); snap.State != StateFailed || snap.Error != errShuttingDown.Error() {
		t.Errorf("in-flight job after Close: %s %q, want failed with %q", snap.State, snap.Error, errShuttingDown)
	}
}

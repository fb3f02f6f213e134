package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"penelope/internal/experiments"
	"penelope/internal/fleetops"
)

// submitDone posts one job and polls it to a terminal state.
func submitDone(t *testing.T, base, body string) Job {
	t.Helper()
	var job Job
	if code := postJSON(t, base+"/v1/jobs", body, &job); code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", body, code)
	}
	if job.State == StateDone || job.State == StateFailed {
		return job
	}
	return pollJob(t, base, job.ID)
}

// getRaw fetches url and returns the status and the body bytes.
func getRaw(t *testing.T, url string) (int, []byte) {
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
	return resp.StatusCode, data
}

// smallJob is the key the eviction tests follow; blobRunner pads its
// payload to trace_length bytes.
const smallJob = `{"experiment":"fig6","options":{"trace_length":100,"trace_stride":531}}`

// floodResults pushes more than the server's result budget of distinct
// payloads through it, in blobs of a quarter of that budget. Stride 531
// keeps each request's implied trace bank inside the request limits.
func floodResults(t *testing.T, s *Server, base string) {
	t.Helper()
	budget := residentResultBudget(s.cfg)
	blob := int(budget / 4)
	for i := 0; i*blob <= int(budget); i++ {
		body := fmt.Sprintf(`{"experiment":"fig6","options":{"trace_length":%d,"trace_stride":531}}`, blob+i)
		if job := submitDone(t, base, body); job.State != StateDone {
			t.Fatalf("flood job failed: %s", job.Error)
		}
		if st := s.results.Stats(); st.Bytes > budget {
			t.Fatalf("%d resident bytes past the %d-byte budget", st.Bytes, budget)
		}
	}
	if st := s.results.Stats(); st.Evictions == 0 {
		t.Fatalf("flood evicted nothing: %+v", st)
	}
}

// countingBlobRunner is blobRunner with a per-key run count.
func countingBlobRunner(runs map[string]int) runFunc {
	return func(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		runs[ResultKey(experiment, o)]++
		return blobRunner(ctx, experiment, o)
	}
}

// TestResultMemoStaysWithinBudget checks that a stream of distinct
// payloads larger than the budget cycles through the result memo
// instead of growing it, and that an evicted key on an in-memory
// server answers 404 until a resubmission recomputes it.
func TestResultMemoStaysWithinBudget(t *testing.T) {
	runs := map[string]int{} // written by the single worker only
	s, ts := newTestServer(t, Config{Workers: 1, runner: countingBlobRunner(runs)})
	first := submitDone(t, ts.URL, smallJob)
	floodResults(t, s, ts.URL)

	if code, _ := getRaw(t, ts.URL+"/v1/results/"+first.ResultKey); code != http.StatusNotFound {
		t.Fatalf("evicted result without a store: status %d, want 404", code)
	}
	again := submitDone(t, ts.URL, smallJob)
	if again.CacheHit || runs[first.ResultKey] != 2 {
		t.Fatalf("evicted key did not recompute: cache_hit %v, runs %d", again.CacheHit, runs[first.ResultKey])
	}
	if code, _ := getRaw(t, ts.URL+"/v1/results/"+first.ResultKey); code != http.StatusOK {
		t.Fatalf("recomputed result: status %d", code)
	}
}

// TestEvictedResultReadsThroughStore checks that a store-backed server
// serves an evicted key from disk: byte-identical on both the job and
// the result endpoints, as one memo miss and one store hit, with no
// re-simulation.
func TestEvictedResultReadsThroughStore(t *testing.T) {
	runs := map[string]int{}
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir(), runner: countingBlobRunner(runs)})
	first := submitDone(t, ts.URL, smallJob)
	_, want := getRaw(t, ts.URL+"/v1/results/"+first.ResultKey)
	floodResults(t, s, ts.URL)
	if _, ok := s.results.Get(first.ResultKey); ok {
		t.Fatal("flood left the first result resident")
	}

	before := s.metrics()
	again := submitDone(t, ts.URL, smallJob)
	if again.State != StateDone || !again.CacheHit {
		t.Fatalf("evicted key not served from the store: %+v", again)
	}
	code, got := getRaw(t, ts.URL+"/v1/results/"+first.ResultKey)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("store-served payload differs (status %d)", code)
	}
	after := s.metrics()
	if runs[first.ResultKey] != 1 {
		t.Errorf("evicted key re-simulated %d times", runs[first.ResultKey]-1)
	}
	if d := after.Cache.Misses - before.Cache.Misses; d != 1 {
		t.Errorf("%d cache misses, want 1", d)
	}
	if d := after.Store.Hits - before.Store.Hits; d != 1 {
		t.Errorf("%d store hits, want 1", d)
	}
}

// TestResultFetchMakesKeyResident checks that GET /v1/results/{key}
// reads an evicted key through the store once and makes it resident:
// three fetches cost one store read, and the key stays resident.
func TestResultFetchMakesKeyResident(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir(), runner: blobRunner})
	first := submitDone(t, ts.URL, smallJob)
	_, want := getRaw(t, ts.URL+"/v1/results/"+first.ResultKey)
	floodResults(t, s, ts.URL)
	if _, ok := s.results.Get(first.ResultKey); ok {
		t.Fatal("flood left the first result resident")
	}

	before := s.store.Stats()
	for i := 0; i < 3; i++ {
		code, got := getRaw(t, ts.URL+"/v1/results/"+first.ResultKey)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("fetch %d: status %d, payload equal %v", i, code, bytes.Equal(got, want))
		}
	}
	if d := s.store.Stats().Hits - before.Hits; d != 1 {
		t.Errorf("3 fetches made %d store reads, want 1", d)
	}
	if _, ok := s.results.Get(first.ResultKey); !ok {
		t.Error("fetched key not resident afterwards")
	}
}

// TestResultFetchRacesResubmit fetches and resubmits an evicted key
// from several goroutines at once: every fetch answers the stored
// bytes, every job completes without error, and nothing re-simulates.
func TestResultFetchRacesResubmit(t *testing.T) {
	runs := map[string]int{} // written by the single worker only
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir(), runner: countingBlobRunner(runs)})
	first := submitDone(t, ts.URL, smallJob)
	_, want := getRaw(t, ts.URL+"/v1/results/"+first.ResultKey)
	floodResults(t, s, ts.URL)

	h := s.Handler()
	jobs := make([]*Job, 4)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/results/"+first.ResultKey, nil))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("concurrent fetch: status %d, payload equal %v", rec.Code, bytes.Equal(rec.Body.Bytes(), want))
			}
		}()
		go func() {
			defer wg.Done()
			job, err := s.submit("racer", first.Experiment, first.Options, "")
			if err != nil {
				t.Errorf("concurrent resubmit: %v", err)
			}
			jobs[i] = job
		}()
	}
	wg.Wait()
	for _, job := range jobs {
		if job == nil {
			continue
		}
		waitFor(t, func() bool { st := s.snapshot(job).State; return st == StateDone || st == StateFailed })
		if snap := s.snapshot(job); snap.State != StateDone {
			t.Errorf("resubmitted job %s: %s", snap.State, snap.Error)
		}
	}
	if runs[first.ResultKey] != 1 {
		t.Errorf("stored key re-simulated %d times", runs[first.ResultKey]-1)
	}
}

// TestHotKeysStayResident checks that a store-backed server keeps a
// read-heavy client's key set resident: the four golden-option payloads
// and four small ones, resubmitted and fetched after a first pass, are
// served from the memo without a single store read.
func TestHotKeysStayResident(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: t.TempDir()})
	var bodies []string
	for _, id := range []string{"fig6", "fig8", "lifetime", "yield"} {
		bodies = append(bodies, fmt.Sprintf(`{"experiment":%q,"options":{"trace_length":2000,"trace_stride":90,"population":600}}`, id))
	}
	for _, id := range []string{"table1", "table2", "fig1", "fig4"} {
		bodies = append(bodies, fmt.Sprintf(`{"experiment":%q}`, id))
	}
	pass := func() {
		for _, body := range bodies {
			job := submitDone(t, ts.URL, body)
			if job.State != StateDone {
				t.Fatalf("%s: %s", body, job.Error)
			}
			if code, _ := getRaw(t, ts.URL+"/v1/results/"+job.ResultKey); code != http.StatusOK {
				t.Fatalf("%s: result status %d", body, code)
			}
		}
	}
	pass()
	before := s.metrics().Store
	for range 3 {
		pass()
	}
	after := s.metrics().Store
	if reads := after.Hits + after.Misses - before.Hits - before.Misses; reads != 0 {
		t.Errorf("%d store reads after the first pass, want 0", reads)
	}
	if st := s.results.Stats(); st.Entries != len(bodies) {
		t.Errorf("%d results resident (%d bytes), want %d", st.Entries, st.Bytes, len(bodies))
	}
}

// TestResidentBytesGauge checks that /metrics reports the result memo's
// charged bytes as penelope_resident_bytes{holder="results"}, through
// an insert and the evictions of a flood, and the recordings memo's as
// {holder="recordings"}.
func TestResidentBytesGauge(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir(), runner: blobRunner})
	check := func() {
		t.Helper()
		_, text, _ := get(t, ts.URL+"/metrics", nil)
		for holder, want := range map[string]int64{
			"results":    s.results.Stats().Bytes,
			"recordings": experiments.RecordingBytes(),
		} {
			prefix := `penelope_resident_bytes{holder="` + holder + `"} `
			i := strings.Index(string(text), "\n"+prefix)
			if i < 0 {
				t.Fatalf("exposition lacks %s", prefix)
			}
			v, _, _ := strings.Cut(string(text[i+1+len(prefix):]), "\n")
			if got, err := strconv.ParseFloat(v, 64); err != nil || got != float64(want) {
				t.Fatalf("%s%s, want %d", prefix, v, want)
			}
		}
	}
	submitDone(t, ts.URL, smallJob)
	if s.results.Stats().Bytes == 0 {
		t.Fatal("a completed result charges no bytes")
	}
	if _, err := experiments.Run("fig6", experiments.Options{TraceLength: 300, TraceStride: 531}); err != nil {
		t.Fatal(err)
	}
	if experiments.RecordingBytes() == 0 {
		t.Fatal("a fig6 run left no recording resident")
	}
	check()
	floodResults(t, s, ts.URL)
	check()
}

// TestInMemoryLifetimeHonorsContext checks that lifetime jobs on a
// server without a store also run through the cancellable driver, so a
// timeout or shutdown stops them.
func TestInMemoryLifetimeHonorsContext(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := experiments.Options{TraceLength: 900, TraceStride: 531, Population: 200, Years: 0.5, FleetSeed: 9}
	if _, err := s.registryRunner(ctx, "lifetime", o); !errors.Is(err, experiments.ErrLifetimeInterrupted) {
		t.Fatalf("cancelled in-memory lifetime run: %v, want ErrLifetimeInterrupted", err)
	}
}

// TestYieldHonorsContext checks that a yield job stops with the fleet
// lifetime run it derives from: a context cancelled from its first poll
// interrupts the run at the first epoch instead of aging the fleets to
// the end of the horizon.
func TestYieldHonorsContext(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ctx := &pollCtx{Context: context.Background()} // limit 0: every poll reports cancelled
	o := experiments.Options{TraceLength: 900, TraceStride: 531, Population: 200, Years: 0.5, FleetSeed: 9}
	if _, err := s.registryRunner(ctx, "yield", o); !errors.Is(err, experiments.ErrLifetimeInterrupted) {
		t.Fatalf("cancelled yield run: %v, want ErrLifetimeInterrupted", err)
	}
	if ctx.polls != 1 {
		t.Errorf("yield run polled its context %d times, want 1 (stop at the first epoch)", ctx.polls)
	}
}

// TestOversizeRequestsRefused sends requests past the request limits to
// every entry point that admits Options: each is a 400, and nothing is
// enqueued or scheduled.
func TestOversizeRequestsRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, runner: blobRunner})
	cases := []struct{ name, url, body string }{
		{"job bank", "/v1/jobs", `{"experiment":"fig6","options":{"trace_length":1099511627776}}`},
		{"job population", "/v1/jobs", `{"experiment":"lifetime","options":{"population":100000000000}}`},
		{"sweep bank", "/v1/sweeps", `{"experiments":["fig6"],"trace_lengths":[2000,1099511627776]}`},
		{"sweep population", "/v1/sweeps", `{"experiments":["lifetime"],"populations":[600,100000000000]}`},
		{"fleet population", "/v1/fleets", `{"name":"huge","options":{"population":100000000000}}`},
		{"fleet bank", "/v1/fleets", `{"name":"long","options":{"trace_length":1099511627776}}`},
		{"job work", "/v1/jobs", `{"experiment":"lifetime","options":{"population":1000000,"years":2800,"epoch_days":1}}`},
		{"sweep work", "/v1/sweeps", `{"experiments":["lifetime"],"populations":[1000000],"years":[7,2800]}`},
		{"fleet work", "/v1/fleets", `{"name":"forever","options":{"population":1000000,"years":2800,"epoch_days":1}}`},
	}
	for _, tc := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL+tc.url, tc.body, &e); code != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: status %d (%q), want 400 with a reason", tc.name, code, e.Error)
		}
	}
	huge := fleetops.Registration{Name: "boot", Options: experiments.Options{Population: 100_000_000_000}}
	if _, err := s.RegisterFleet(huge); err == nil {
		t.Error("-fleet-config path admitted an oversize fleet")
	}
	m := s.metrics()
	if m.Jobs.Submitted != 0 || m.Fleet.Scheduler.Populations != 0 {
		t.Errorf("refused requests left %d jobs and %d fleets", m.Jobs.Submitted, m.Fleet.Scheduler.Populations)
	}
	if code, _ := getRaw(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz after refusals: status %d", code)
	}
}

// TestBootQuarantinesOversizeRecords boots over a data dir holding a job
// record and a fleet registration past the request limits — as an
// earlier version admitted them — and requires the server to set both
// aside instead of replaying them into an out-of-memory crash, and to
// serve.
func TestBootQuarantinesOversizeRecords(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"checkpoints", "fleets"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	spec, _ := experiments.Lookup("fig6")
	o := spec.CanonicalOptions(experiments.Options{TraceLength: 1 << 40})
	key := ResultKey("fig6", o)
	writeFile(t, filepath.Join(dir, "checkpoints", key+".job"),
		[]byte(fmt.Sprintf(`{"key":%q,"experiment":"fig6","options":{"trace_length":%d}}`, key, o.TraceLength)))
	writeFile(t, filepath.Join(dir, "fleets", "huge.fleet"),
		[]byte(`{"name":"huge","options":{"population":100000000000}}`))

	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir, runner: blobRunner})
	m := s.metrics()
	if m.Jobs.Submitted != 0 || m.Jobs.Resumed != 0 || m.Fleet.ResumedBoot != 0 {
		t.Fatalf("oversize records replayed: %d jobs, %d fleets", m.Jobs.Submitted, m.Fleet.ResumedBoot)
	}
	if m.Store.Quarantined != 2 {
		t.Errorf("%d records quarantined, want 2", m.Store.Quarantined)
	}
	for _, p := range []string{"checkpoints/" + key + ".job", "fleets/huge.fleet"} {
		if _, err := os.Stat(filepath.Join(dir, p+".quarantine")); err != nil {
			t.Errorf("%s not set aside: %v", p, err)
		}
	}
	if job := submitDone(t, ts.URL, smallJob); job.State != StateDone {
		t.Fatalf("server not serving after boot: %+v", job)
	}
}

// TestBootQuarantinesOverWorkRecords boots over a job record and a
// fleet registration whose population fits but whose schedule runs past
// the chip-epoch work limit — hours of engine compute, replayed on
// every boot — and requires both to be set aside like any record past
// the request limits.
func TestBootQuarantinesOverWorkRecords(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"checkpoints", "fleets"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	spec, _ := experiments.Lookup("lifetime")
	o := spec.CanonicalOptions(experiments.Options{Population: 1_000_000, Years: 2800, EpochDays: 1})
	optJSON, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey("lifetime", o)
	writeFile(t, filepath.Join(dir, "checkpoints", key+".job"),
		[]byte(fmt.Sprintf(`{"key":%q,"experiment":"lifetime","options":%s}`, key, optJSON)))
	writeFile(t, filepath.Join(dir, "fleets", "forever.fleet"),
		[]byte(`{"name":"forever","options":{"population":1000000,"years":2800,"epoch_days":1},"cursor":0}`))

	s, _ := newTestServer(t, Config{Workers: 1, DataDir: dir, runner: blobRunner})
	m := s.metrics()
	if m.Jobs.Submitted != 0 || m.Jobs.Resumed != 0 || m.Fleet.ResumedBoot != 0 {
		t.Fatalf("over-work records replayed: %d jobs, %d fleets", m.Jobs.Submitted, m.Fleet.ResumedBoot)
	}
	for _, p := range []string{"checkpoints/" + key + ".job", "fleets/forever.fleet"} {
		if _, err := os.Stat(filepath.Join(dir, p+".quarantine")); err != nil {
			t.Errorf("%s not set aside: %v", p, err)
		}
	}
}

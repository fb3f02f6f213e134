package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"penelope/internal/experiments"
)

// blobResult pads its payload to a size the test controls, so the
// store's disk budget can be crossed on purpose.
type blobResult struct {
	Name string `json:"name"`
	Blob string `json:"blob"`
}

func (r blobResult) ID() string         { return r.Name }
func (r blobResult) Render(w io.Writer) { fmt.Fprintln(w, r.Name) }

// blobRunner sizes each result's padding from TraceLength, so distinct
// options produce distinct keys and predictable payload sizes.
func blobRunner(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
	return blobResult{Name: experiment, Blob: strings.Repeat("x", o.TraceLength)}, nil
}

// TestReadyzStoreDegradedAndRecovers drives the store over its disk
// budget through the service: an oversized result sheds its cache
// write (the job itself still succeeds), /readyz degrades and names
// the store as the cause, and a result that fits recovers it.
func TestReadyzStoreDegradedAndRecovers(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:     1,
		DataDir:     t.TempDir(),
		StoreBudget: 4096,
		runner:      blobRunner,
	})

	submit := func(traceLength int) Job {
		var job Job
		body := fmt.Sprintf(`{"experiment":"fig5","options":{"trace_length":%d}}`, traceLength)
		if code := postJSON(t, ts.URL+"/v1/jobs", body, &job); code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit: status %d", code)
		}
		return pollJob(t, ts.URL, job.ID)
	}

	// A payload bigger than the whole budget can never be cached: the
	// job still completes, the store degrades.
	job := submit(64 * 1024)
	if job.State != StateDone {
		t.Fatalf("oversized job failed: %+v", job.Error)
	}
	if s.store.Has(job.ResultKey) {
		t.Error("oversized result cached past the budget")
	}
	var ready readiness
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with degraded store: status %d, body %+v", code, ready)
	}
	if ready.Status != "degraded" || ready.Store == nil || ready.Store.BudgetRefusals == 0 {
		t.Fatalf("degraded readyz does not name the store: %+v", ready)
	}

	// A result that fits recovers the store and readiness.
	job = submit(64)
	if job.State != StateDone {
		t.Fatalf("small job failed: %+v", job.Error)
	}
	if !s.store.Has(job.ResultKey) {
		t.Fatal("small result not cached; budget sized wrong for the envelope")
	}
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz after recovery: status %d %q", code, ready.Status)
	}

	// The store section rides along in /metrics, budget included.
	var m Metrics
	if code := getJSON(t, ts.URL+"/metrics.json", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Store == nil || m.Store.BudgetBytes != 4096 || m.Store.BudgetRefusals == 0 {
		t.Fatalf("store metrics missing budget counters: %+v", m.Store)
	}
}

// TestServerCloseStopsScrubber covers the scrubber lifecycle through
// the server: New starts it, Close stops it, and a scrub pass is
// visible in the store stats.
func TestServerCloseStopsScrubber(t *testing.T) {
	s, err := New(Config{
		Workers:       1,
		DataDir:       t.TempDir(),
		ScrubInterval: time.Millisecond,
		runner:        blobRunner,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !waitForCond(2*time.Second, func() bool { return s.store.Stats().ScrubPasses > 0 }) {
		t.Error("background scrubber never ran")
	}
	s.Close()
	passes := s.store.Stats().ScrubPasses
	time.Sleep(10 * time.Millisecond)
	if got := s.store.Stats().ScrubPasses; got != passes {
		t.Errorf("scrubber survived Close: %d -> %d passes", passes, got)
	}
}

// waitForCond polls cond until it holds or the timeout passes.
func waitForCond(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"penelope/internal/experiments"
)

// FuzzSubmitJob posts arbitrary bodies to POST /v1/jobs on a server
// whose runner answers at once. It must never panic, and must answer
// only 202, 400, 429 or 503. Every accepted job must carry canonical
// options, which canonicalRequest returns unchanged, and the result key
// those options hash to: a job admitted under other options or another
// key would answer for a simulation nobody asked for.
func FuzzSubmitJob(f *testing.F) {
	s, err := New(Config{
		Workers:         1,
		HistoryInterval: -1,
		runner:          fuzzRunner,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	lifetime := `{"experiment":"lifetime","options":{"population":500,"years":7,"epoch_days":30,"variation_sigma":0.08,"fleet_seed":7},"client":"fuzz"}`
	for _, body := range []string{
		`{"experiment":"fig6"}`,
		`{"experiment":"fig6","options":{"trace_length":6000,"trace_stride":40}}`,
		lifetime,
		`{"experiment":"fig6","options":{"trace_length":1099511627776}}`,
		`{"experiment":"lifetime","options":{"population":1000001}}`,
		`{"experiment":"lifetime","options":{"population":1000000,"years":2800,"epoch_days":1}}`,
		`{"experiment":"fig6","bogus":1}`,
		`{"experiment":"fig6","options":{"bogus":1}}`,
		`{"experiment":"nope"}`,
		lifetime[:len(lifetime)/2],
		`{"experiment":"fig6"} {"experiment":"fig8"}`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var job Job
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			t.Fatalf("202 with an undecodable job view: %v", err)
		}
		checkAcceptedJob(t, job)
	})
}

// fuzzRunner answers every job at once, so the fuzzers exercise
// admission and bookkeeping rather than simulation.
func fuzzRunner(_ context.Context, experiment string, _ experiments.Options) (experiments.Result, error) {
	return fakeResult{Name: experiment}, nil
}

// checkAcceptedJob requires an accepted job to carry canonical options,
// which canonicalRequest returns unchanged, and the result key those
// options hash to: a job admitted under other options or another key
// would answer for a simulation nobody asked for.
func checkAcceptedJob(t *testing.T, job Job) {
	t.Helper()
	_, canon, err := canonicalRequest(job.Experiment, job.Options)
	if err != nil {
		t.Fatalf("accepted options fail canonicalRequest: %v", err)
	}
	if canon != job.Options {
		t.Fatalf("accepted options %+v are not canonical (%+v)", job.Options, canon)
	}
	if key := ResultKey(job.Experiment, job.Options); key != job.ResultKey {
		t.Fatalf("job result_key %s, options hash to %s", job.ResultKey, key)
	}
}

// FuzzSubmitSweep posts arbitrary bodies to POST /v1/sweeps on a server
// whose runner answers at once. It must never panic, and must answer
// only 202, 400, 429 or 503. An accepted sweep must list one job per
// point of its grid (the product of its axes, an empty axis counting
// as one default point), never more than maxSweepJobs, and every job
// must pass the same checks as an accepted single submission.
func FuzzSubmitSweep(f *testing.F) {
	s, err := New(Config{
		Workers:         1,
		HistoryInterval: -1,
		runner:          fuzzRunner,
		// Drop each finished sweep's event topic at once, so thousands
		// of accepted sweeps do not pile up topics for five minutes.
		sweepRetention: time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	values := func(n int) string {
		v := make([]string, n)
		for i := range v {
			v[i] = fmt.Sprint(1000 + i)
		}
		return "[" + strings.Join(v, ",") + "]"
	}
	lifetime := `{"experiments":["lifetime"],"populations":[100,500],"variation_sigmas":[0.04,0.08],"years":[1,7],"client":"fuzz"}`
	for _, body := range []string{
		`{"experiments":["fig6"],"trace_lengths":[2000,4000,6000],"trace_strides":[40,90]}`,
		lifetime,
		`{"experiments":["fig6"],"trace_lengths":` + values(maxSweepJobs+1) + `}`,
		`{"experiments":["fig6","fig8"],"trace_lengths":` + values(33) + `,"trace_strides":` + values(16) + `}`,
		`{"experiments":["nope"]}`,
		`{"experiments":["fig6"],"bogus":1}`,
		lifetime[:len(lifetime)/2],
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var req sweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("202 for a body that does not decode: %v", err)
		}
		points := 1
		for _, axis := range []int{
			len(req.Experiments), len(req.TraceLengths), len(req.TraceStrides),
			len(req.Populations), len(req.VariationSigmas), len(req.Years),
		} {
			points *= max(axis, 1)
		}
		var resp struct {
			Jobs []Job `json:"jobs"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("202 with an undecodable sweep view: %v", err)
		}
		if len(resp.Jobs) != points || points > maxSweepJobs {
			t.Fatalf("sweep of %d grid points listed %d jobs (limit %d)", points, len(resp.Jobs), maxSweepJobs)
		}
		for _, job := range resp.Jobs {
			checkAcceptedJob(t, job)
		}
	})
}

package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
		Runner: func(_ context.Context, experiment string, _ experiments.Options) (experiments.Result, error) {
			return fakeResult{Name: experiment}, nil
		},
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
		canon, err := canonicalRequest(job.Experiment, job.Options)
		if err != nil {
			t.Fatalf("accepted options fail canonicalRequest: %v", err)
		}
		if canon != job.Options {
			t.Fatalf("accepted options %+v are not canonical (%+v)", job.Options, canon)
		}
		if key := ResultKey(job.Experiment, job.Options); key != job.ResultKey {
			t.Fatalf("job result_key %s, options hash to %s", job.ResultKey, key)
		}
	})
}

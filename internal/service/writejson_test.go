package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/obs/tsdb"
)

// encoderJSON is the reference writeJSON must match: a json.Encoder
// with SetIndent("", "  "), which ends with a newline.
func encoderJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteJSONMatchesEncoder checks that writeJSON's body is byte for
// byte what json.Encoder with SetIndent writes, for every response shape
// it serves, each built from a live server's state the way its handler
// builds it.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	s, ts := newTestServer(t, fastFleetConfig(testFleetBuilder(0.5)))

	done := submitDone(t, ts.URL, `{"experiment":"table1"}`)
	sweep := submitDone(t, ts.URL, `{"experiment":"fig4","options":{"trace_length":200,"trace_stride":531}}`)
	if code := postJSON(t, ts.URL+"/v1/fleets", `{"name":"pop-a","epochs_per_tick":2}`, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	waitForStatus(t, ts.URL, "pop-a", func(st fleetops.Status) bool { return st.Epoch >= 1 })
	fleet, _ := s.sched.Get("pop-a")

	hist := s.obs.reg.Histogram("test_latency_seconds", "test histogram", []float64{0.1, 1, 10})
	start := time.Now().Add(-10 * time.Minute)
	end := feedHistory(s, start, 12, 10*time.Second, func(i int) { hist.Observe(0.05 * float64(i+1)) })
	query, err := s.history.Query(tsdb.Query{Name: "test_latency_seconds", From: start, To: end, Step: 30 * time.Second, Quantile: 0.9})
	if err != nil || len(query.Series) != 1 || len(query.Series[0].Points) == 0 {
		t.Fatalf("history query: %+v, %v", query, err)
	}

	var infos []ExperimentInfo
	for _, spec := range experiments.Experiments() {
		infos = append(infos, ExperimentInfo{ID: spec.ID, Description: spec.Description,
			OptionsFree: spec.OptionsFree, Fleet: spec.Fleet})
	}
	s.mu.Lock()
	jobs := []Job{*s.jobs[done.ID], *s.jobs[sweep.ID]}
	s.mu.Unlock()

	cases := map[string]any{
		"job view":    jobs[0],
		"job list":    map[string]any{"jobs": jobs, "total": len(jobs)},
		"sweep":       map[string]any{"sweep_id": "sweep-1", "events": "/v1/sweeps/sweep-1/events", "jobs": jobs},
		"error":       map[string]string{"error": fmt.Sprintf("no completed result for key %q", `<a&b>"\`)},
		"fleet":       fleet,
		"fleet list":  map[string]any{"fleets": s.sched.List()},
		"history":     query,
		"experiments": map[string][]ExperimentInfo{"experiments": infos},
		"metrics":     s.metrics(),
		"empty":       map[string]any{"families": []tsdb.FamilyMeta{}, "rules": nil},
	}
	for name, v := range cases {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if want := encoderJSON(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: writeJSON gave\n%s\nwant\n%s", name, rec.Body.Bytes(), want)
		}
	}
}

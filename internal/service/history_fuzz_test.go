package service

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// FuzzMetricsQuery feeds arbitrary query parameters to the range-query
// handler on a server with history enabled and a few minutes of
// samples: every request must answer 200, 400 or 404, never panic.
func FuzzMetricsQuery(f *testing.F) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	reg := s.obs.reg
	ctr := reg.Counter("fuzz_events_total", "fuzz counter")
	hist := reg.HistogramVec("fuzz_latency_seconds", "fuzz histogram", "route", []float64{0.1, 1})
	feedHistory(s, time.Now().Add(-5*time.Minute), 30, 10*time.Second, func(i int) {
		ctr.Add(uint64(i))
		hist.With("a").Observe(0.5)
	})

	// name, from, to, step, q, agg, label
	f.Add("penelope_jobs_done_total", "0", "9300000000000000", "", "", "", "")
	f.Add("penelope_uptime_seconds", "-5m", "", "1s", "", "", "")
	f.Add("penelope_http_request_seconds", "-5m", "", "1s", "0.9", "", "")
	f.Add("fuzz_events_total", "-10m", "", "30s", "", "increase", "")
	f.Add("fuzz_latency_seconds", "-10m", "", "", "0.5", "quantile", "a")
	f.Add("fuzz_latency_seconds#count", "2006-01-02T15:04:05Z", "-1s", "1ms", "", "avg", "")
	f.Fuzz(func(t *testing.T, name, from, to, step, q, agg, label string) {
		params := url.Values{}
		for k, v := range map[string]string{"name": name, "from": from, "to": to, "step": step, "q": q, "agg": agg, "label": label} {
			if v != "" {
				params.Set(k, v)
			}
		}
		w := httptest.NewRecorder()
		s.handleMetricsQuery(w, httptest.NewRequest(http.MethodGet, "/v1/metrics/query?"+params.Encode(), nil))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("query %s: status %d", params.Encode(), w.Code)
		}
	})
}

package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"penelope/internal/fleetops"
	"penelope/internal/obs/tsdb"
)

// feedHistory drives the server's sampler directly with fabricated
// times, so history tests never wait on the real 10s cadence. Returns
// the time of the last sample.
func feedHistory(s *Server, start time.Time, n int, step time.Duration, tick func(i int)) time.Time {
	now := start
	for i := 0; i < n; i++ {
		if tick != nil {
			tick(i)
		}
		s.history.Sample(now)
		now = now.Add(step)
	}
	return now.Add(-step)
}

// TestHistoryQueryEndpoint drives samples through the embedded store
// and reads them back over the HTTP range-query API: a counter rate, a
// histogram quantile, the names listing, and the error paths.
func TestHistoryQueryEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	reg := s.obs.reg
	ctr := reg.Counter("test_events_total", "test counter")
	hist := reg.Histogram("test_latency_seconds", "test histogram", []float64{0.1, 1, 10})

	start := time.Now().Add(-30 * time.Minute)
	end := feedHistory(s, start, 20, 10*time.Second, func(i int) {
		ctr.Add(5) // 0.5/s at a 10s cadence
		hist.Observe(0.5)
	})

	base := fmt.Sprintf("from=%d&to=%d&step=30s", start.Unix(), end.Unix())
	var res tsdb.Result
	if code := getJSON(t, ts.URL+"/v1/metrics/query?name=test_events_total&"+base, &res); code != http.StatusOK {
		t.Fatalf("counter query: status %d", code)
	}
	if res.Kind != "counter" || res.Agg != "rate" || len(res.Series) != 1 {
		t.Fatalf("counter result = %+v", res)
	}
	if n := len(res.Series[0].Points); n < 2 {
		t.Fatalf("counter rate has %d points, want >= 2", n)
	}
	lastRate := res.Series[0].Points[len(res.Series[0].Points)-1].V
	if lastRate < 0.4 || lastRate > 0.6 {
		t.Fatalf("steady 0.5/s counter reports rate %v", lastRate)
	}

	if code := getJSON(t, ts.URL+"/v1/metrics/query?name=test_latency_seconds&q=0.5&"+base, &res); code != http.StatusOK {
		t.Fatalf("histogram query: status %d", code)
	}
	if res.Kind != "histogram" || res.Agg != "quantile" || len(res.Series) != 1 {
		t.Fatalf("histogram result = %+v", res)
	}
	if n := len(res.Series[0].Points); n < 2 {
		t.Fatalf("histogram quantile has %d points, want >= 2", n)
	}
	p50 := res.Series[0].Points[len(res.Series[0].Points)-1].V
	if p50 <= 0.1 || p50 > 1 {
		t.Fatalf("p50 of 0.5s observations = %v, want inside (0.1, 1]", p50)
	}

	var names struct {
		Families []tsdb.FamilyMeta `json:"families"`
	}
	if code := getJSON(t, ts.URL+"/v1/metrics/names", &names); code != http.StatusOK {
		t.Fatal("names endpoint not OK")
	}
	found := false
	for _, f := range names.Families {
		if f.Name == "test_events_total" && f.Kind == "counter" {
			found = true
		}
	}
	if !found {
		t.Fatalf("names listing missing the test counter (%d families)", len(names.Families))
	}

	for query, want := range map[string]int{
		"":                                     http.StatusBadRequest, // no name
		"name=no_such_family":                  http.StatusNotFound,
		"name=test_events_total&step=bogus":    http.StatusBadRequest,
		"name=test_events_total&from=whenever": http.StatusBadRequest,
		"name=test_latency_seconds&q=2.5":      http.StatusBadRequest,
		// Unix milliseconds of this bound overflow int64; it used to
		// panic the handler and drop the connection.
		"name=penelope_jobs_done_total&from=0&to=9300000000000000": http.StatusBadRequest,
	} {
		if code := getJSON(t, ts.URL+"/v1/metrics/query?"+query, nil); code != want {
			t.Errorf("query %q: status %d, want %d", query, code, want)
		}
	}
}

// TestHistoryDisabled: a negative interval turns the whole subsystem
// off, and configuring SLO rules without history is a wiring error.
func TestHistoryDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, HistoryInterval: -1})
	if s.history != nil {
		t.Fatal("history open despite negative interval")
	}
	if code := getJSON(t, ts.URL+"/v1/metrics/query?name=x", nil); code != http.StatusNotFound {
		t.Fatalf("query on disabled history: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/metrics/names", nil); code != http.StatusNotFound {
		t.Fatalf("names on disabled history: status %d, want 404", code)
	}
	// /v1/slo and /dashboard still answer.
	if code := getJSON(t, ts.URL+"/v1/slo", nil); code != http.StatusOK {
		t.Fatalf("slo on disabled history: status %d", code)
	}

	if _, err := New(Config{Workers: 1, HistoryInterval: -1,
		SLORules: []fleetops.SLORule{{Name: "r", Numerator: "a", Denominator: "b", Objective: 0.01}}}); err == nil {
		t.Fatal("SLO rules with disabled history accepted")
	}
	if _, err := New(Config{Workers: 1,
		SLORules: []fleetops.SLORule{{Name: "", Kind: "bogus"}}}); err == nil {
		t.Fatal("invalid SLO rule accepted")
	}
}

// TestHistoryRestartServesPrerestartSamples is the service-level
// restart criterion: close (which flushes), restart over the same data
// dir, and the same range query answers byte-identically from the
// reloaded blocks.
func TestHistoryRestartServesPrerestartSamples(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dir}
	s1, ts1 := newTestServer(t, cfg)

	ctr := s1.obs.reg.Counter("test_restart_total", "survives restarts")
	start := time.Now().Add(-20 * time.Minute)
	end := feedHistory(s1, start, 12, 10*time.Second, func(i int) { ctr.Add(3) })

	query := fmt.Sprintf("/v1/metrics/query?name=test_restart_total&agg=increase&from=%d&to=%d&step=30s",
		start.Unix(), end.Unix())
	code, before, _ := get(t, ts1.URL+query, nil)
	if code != http.StatusOK {
		t.Fatalf("pre-restart query: status %d", code)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, cfg)
	// The restarted process registers the same family (fresh at zero, as
	// any counter is after a reboot); history for it comes from blocks.
	s2.obs.reg.Counter("test_restart_total", "survives restarts")
	if st := s2.history.Stats(); st.BlocksLoaded == 0 || st.BlocksQuarantined != 0 {
		t.Fatalf("restart loaded %d blocks, quarantined %d", st.BlocksLoaded, st.BlocksQuarantined)
	}
	code, after, _ := get(t, ts2.URL+query, nil)
	if code != http.StatusOK {
		t.Fatalf("post-restart query: status %d", code)
	}
	if string(before) != string(after) {
		t.Fatalf("restart changed the range-query payload:\n before: %s\n after:  %s", before, after)
	}
	if !strings.Contains(string(after), `"v":`) || strings.Contains(string(after), `"points":[]`) {
		t.Fatalf("post-restart payload has no points: %s", after)
	}
}

// TestSLOThroughServer wires burn-rate rules into a real server, drives
// the sampled history into breach, and checks the alert leaves through
// the configured sink and the status surfaces on /v1/slo and /metrics.
func TestSLOThroughServer(t *testing.T) {
	sink := &testSink{}
	s, ts := newTestServer(t, Config{
		Workers:   1,
		alertSink: sink,
		SLORules: []fleetops.SLORule{{
			Name: "bad-ratio", Numerator: "test_bad_total", Denominator: "test_all_total",
			Objective:   0.01,
			ShortWindow: fleetops.Duration(5 * time.Minute),
			LongWindow:  fleetops.Duration(time.Hour),
			Burn:        2,
		}},
	})

	reg := s.obs.reg
	bad := reg.Counter("test_bad_total", "failing events")
	all := reg.Counter("test_all_total", "all events")

	// 61 minutes of samples at 3% bad: burn 3x the 1% objective in both
	// the 5m and 1h windows.
	start := time.Now().Add(-90 * time.Minute)
	end := feedHistory(s, start, 61, time.Minute, func(i int) {
		bad.Add(3)
		all.Add(100)
	})
	fired := s.slo.EvaluateOnce(end)
	if len(fired) != 1 {
		t.Fatalf("breaching rule fired %d alerts, want 1", len(fired))
	}
	if fired[0].Fleet != "slo" || fired[0].Rule != "bad-ratio" {
		t.Fatalf("alert = %+v", fired[0])
	}

	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Delivered()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alert never reached the sink through the delivery pipeline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := sink.Delivered()
	if got[0].Rule != "bad-ratio" || !strings.HasPrefix(got[0].ID, "slo/bad-ratio/") {
		t.Fatalf("sink saw %+v", got[0])
	}

	var slo struct {
		Stats fleetops.SLOStats    `json:"stats"`
		Rules []fleetops.SLOStatus `json:"rules"`
	}
	if code := getJSON(t, ts.URL+"/v1/slo", &slo); code != http.StatusOK {
		t.Fatal("/v1/slo not OK")
	}
	if slo.Stats.Rules != 1 || slo.Stats.Fired != 1 || len(slo.Rules) != 1 || !slo.Rules[0].Firing {
		t.Fatalf("slo payload = %+v", slo)
	}

	var m Metrics
	if code := getJSON(t, ts.URL+"/metrics.json", &m); code != http.StatusOK {
		t.Fatal("/metrics.json not OK")
	}
	if m.SLO == nil || m.SLO.Fired != 1 {
		t.Fatalf("metrics SLO section = %+v", m.SLO)
	}
	if m.History == nil || m.History.Samples == 0 {
		t.Fatalf("metrics history section = %+v", m.History)
	}
}

// TestShedRetryAfterGauge pins the exported Retry-After estimate to the
// backoff controller's own answer, including the measured-wait path.
func TestShedRetryAfterGauge(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	read := func() string {
		_, text, _ := get(t, ts.URL+"/metrics", nil)
		for _, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(line, "penelope_shed_retry_after_seconds ") {
				return strings.TrimPrefix(line, "penelope_shed_retry_after_seconds ")
			}
		}
		t.Fatal("exposition missing penelope_shed_retry_after_seconds")
		return ""
	}
	if got := read(); got != "1" {
		t.Fatalf("idle Retry-After gauge = %s, want the 1s clamp", got)
	}
	s.backoff.observeWait(42 * time.Second)
	if got := read(); got != "42" {
		t.Fatalf("Retry-After gauge = %s after observing 42s waits, want 42", got)
	}
	want := s.backoff.retryAfter(s.pool.queueDepth(), s.cfg.Workers).Seconds()
	if want != 42 {
		t.Fatalf("controller answer drifted: %v", want)
	}
}

// TestDashboardServed: the dashboard is one self-contained page with no
// external assets, so it works with no network beyond this server.
func TestDashboardServed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body, ctype := get(t, ts.URL+"/dashboard", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /dashboard: status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/html") {
		t.Fatalf("dashboard Content-Type = %q", ctype)
	}
	page := string(body)
	if !strings.Contains(page, "fleet dashboard") || !strings.Contains(page, "/v1/metrics/query") {
		t.Fatal("dashboard page missing expected content")
	}
	for _, external := range []string{"http://", "https://", "src=\"//", "@import", "cdn."} {
		if strings.Contains(page, external) {
			t.Fatalf("dashboard references an external resource (%q)", external)
		}
	}
}

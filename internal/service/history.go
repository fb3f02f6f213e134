package service

import (
	_ "embed"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"penelope/internal/fleetops"
	"penelope/internal/obs/tsdb"
)

// This file wires the embedded metric history: a sampling loop feeding
// the obs/tsdb store, the range-query API behind /v1/metrics/query, the
// SLO engine evaluated on the same cadence, and the self-contained
// /dashboard page. History is on by default (10s cadence, memory-only
// without a DataDir) and disabled with a negative HistoryInterval.

//go:embed dashboard.html
var dashboardHTML []byte

// initHistory opens the time-series store, builds the SLO engine from
// the configured rules, registers the history's own families, and
// starts the sampling loop. Called after initFleetops so SLO breaches
// can ride the same bus and delivery pipeline as fleet alerts.
func (s *Server) initHistory() error {
	if s.cfg.HistoryInterval < 0 {
		if len(s.cfg.SLORules) > 0 {
			return fmt.Errorf("service: SLO rules configured but metric history is disabled")
		}
		return nil
	}
	cfg := tsdb.Config{
		Registry:  s.obs.reg,
		Interval:  s.cfg.HistoryInterval,
		Retention: s.cfg.HistoryRetention,
	}
	if s.cfg.DataDir != "" {
		cfg.Dir = filepath.Join(s.cfg.DataDir, "metrics")
		cfg.ScrubInterval = s.cfg.ScrubInterval
	}
	db, err := tsdb.Open(cfg)
	if err != nil {
		return fmt.Errorf("opening metric history: %w", err)
	}
	s.history = db
	if len(s.cfg.SLORules) > 0 {
		eng, err := fleetops.NewSLOEngine(db, s.cfg.SLORules, s.bus, s.deliverer)
		if err != nil {
			return err
		}
		s.slo = eng
	}
	s.registerHistoryMetrics()
	s.historyWG.Add(1)
	go s.historyLoop()
	return nil
}

// registerHistoryMetrics mirrors the history's bookkeeping as metric
// families. tsdb.Stats reads only atomics, so the sampler reading these
// gauges mid-Sample (while it holds the store's own lock) cannot
// deadlock.
func (s *Server) registerHistoryMetrics() {
	reg := s.obs.reg
	hs := s.history.Stats
	reg.GaugeFunc("penelope_tsdb_series", "Flat series the metric history tracks.",
		func() float64 { return float64(hs().Series) })
	reg.GaugeFunc("penelope_tsdb_blocks", "Persisted history blocks on disk.",
		func() float64 { return float64(hs().Blocks) })
	reg.GaugeFunc("penelope_tsdb_block_bytes", "Total persisted history block bytes.",
		func() float64 { return float64(hs().BlockBytes) })
	reg.CounterFunc("penelope_tsdb_samples_total", "Registry sampling passes completed.",
		func() uint64 { return hs().Samples })
	reg.CounterFunc("penelope_tsdb_points_total", "Raw points appended to the history.",
		func() uint64 { return hs().Points })
	reg.CounterFunc("penelope_tsdb_blocks_written_total", "History blocks flushed to disk.",
		func() uint64 { return hs().BlocksWritten })
	reg.CounterFunc("penelope_tsdb_blocks_quarantined_total", "Corrupt history blocks set aside instead of loaded.",
		func() uint64 { return hs().BlocksQuarantined })
	reg.CounterFunc("penelope_tsdb_blocks_deleted_total", "History blocks deleted by retention or the disk budget.",
		func() uint64 { return hs().BlocksDeleted })
	reg.CounterFunc("penelope_tsdb_flush_failures_total", "History block flushes that failed (samples retry in the next flush).",
		func() uint64 { return hs().FlushFailures })
	reg.CounterFunc("penelope_tsdb_scrub_passes_total", "Background history scrub passes completed.",
		func() uint64 { return hs().ScrubPasses })
}

// historyLoop samples the registry and evaluates SLO rules on the
// configured cadence until shutdown.
func (s *Server) historyLoop() {
	defer s.historyWG.Done()
	ticker := time.NewTicker(s.cfg.HistoryInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-ticker.C:
			s.history.Sample(now)
			if s.slo != nil {
				for _, a := range s.slo.EvaluateOnce(now) {
					s.logger.Warn("SLO breached", "rule", a.Rule, "message", a.Message)
				}
			}
		}
	}
}

// parseQueryTime accepts RFC3339 timestamps, integer unix seconds, and
// negative durations relative to now ("-15m").
func parseQueryTime(v string, now time.Time) (time.Time, error) {
	if strings.HasPrefix(v, "-") {
		d, err := time.ParseDuration(v)
		if err != nil {
			return time.Time{}, fmt.Errorf("bad time %q: %v", v, err)
		}
		return now.Add(d), nil
	}
	if sec, err := strconv.ParseInt(v, 10, 64); err == nil {
		return time.Unix(sec, 0), nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad time %q (want RFC3339, unix seconds, or -duration)", v)
	}
	return t, nil
}

// handleMetricsQuery serves range queries against the metric history:
// GET /v1/metrics/query?name=penelope_jobs_done_total&from=-15m&step=30s&agg=rate
func (s *Server) handleMetricsQuery(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeError(w, http.StatusNotFound, errors.New("metric history is disabled"))
		return
	}
	params := r.URL.Query()
	q := tsdb.Query{Name: params.Get("name"), Label: params.Get("label"), Agg: params.Get("agg")}
	if q.Name == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing name parameter"))
		return
	}
	now := time.Now()
	q.To = now
	if v := params.Get("to"); v != "" {
		t, err := parseQueryTime(v, now)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		q.To = t
	}
	q.From = q.To.Add(-15 * time.Minute)
	if v := params.Get("from"); v != "" {
		t, err := parseQueryTime(v, now)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		q.From = t
	}
	if v := params.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad step %q", v))
			return
		}
		q.Step = d
	} else {
		// Default to ~120 windows across the range, no finer than the
		// sampling cadence.
		q.Step = q.To.Sub(q.From) / 120
		if q.Step < s.cfg.HistoryInterval {
			q.Step = s.cfg.HistoryInterval
		}
		if q.Step <= 0 {
			q.Step = time.Second
		}
	}
	if v := params.Get("q"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad quantile %q", v))
			return
		}
		q.Quantile = f
	} else {
		q.Quantile = 0.99
	}
	res, err := s.history.Query(q)
	switch {
	case errors.Is(err, tsdb.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleMetricsNames lists the families the history tracks, with kinds,
// vec label values and histogram bounds — everything a client needs to
// build queries.
func (s *Server) handleMetricsNames(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeError(w, http.StatusNotFound, errors.New("metric history is disabled"))
		return
	}
	fams := s.history.Names()
	if fams == nil {
		fams = []tsdb.FamilyMeta{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"families": fams})
}

// handleSLO serves SLO rule status: last window evaluations, latches,
// and the engine counters. Always 200 — no rules is an empty list, so
// dashboards need no special case.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	rules := s.slo.Status()
	if rules == nil {
		rules = []fleetops.SLOStatus{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stats": s.slo.Stats(),
		"rules": rules,
	})
}

// handleDashboard serves the embedded single-file dashboard. Everything
// it needs ships inline — no external scripts, styles or fonts — so it
// works on an air-gapped host.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(dashboardHTML)
}

package fleetops

import (
	"fmt"
	"time"
)

// HistorySource is the metric-history surface the SLO engine evaluates
// against — implemented by obs/tsdb.DB. All three reductions answer
// over the trailing window ending at now; ok is false when the history
// is too short to say anything.
type HistorySource interface {
	// Increase is the reset-aware increase of a cumulative series.
	Increase(name string, window time.Duration, now time.Time) (float64, bool)
	// Avg is the mean sampled value.
	Avg(name string, window time.Duration, now time.Time) (float64, bool)
	// Slope is the least-squares trend in value units per second.
	Slope(name string, window time.Duration, now time.Time) (float64, bool)
}

// SLO rule kinds.
const (
	SLOBurnRate  = "burn_rate"
	SLOThreshold = "threshold"
	SLOSlope     = "slope"
)

// SLORule is one declarative objective.
//
// burn_rate divides the increase of Numerator by the increase of
// Denominator over each window (the bad-event ratio), divides that by
// Objective (the error budget), and fires when the result is at least
// Burn in BOTH windows — the standard multi-window pattern: the long
// window proves sustained budget spend, the short window proves it is
// still happening, so a resolved incident stops alerting without
// waiting for the long window to drain.
//
// threshold reduces Series (Avg over each window) and compares it
// against Objective in Direction; slope does the same over the
// least-squares trend per second. Both also require breach in both
// windows.
type SLORule struct {
	// Name keys the alert and the latch. Required, unique.
	Name string `json:"name"`
	// Kind is burn_rate, threshold or slope (default burn_rate).
	Kind string `json:"kind,omitempty"`
	// Numerator/Denominator are the burn-rate counters (e.g. shed
	// requests over all requests). Histogram family names address their
	// #count series.
	Numerator   string `json:"numerator,omitempty"`
	Denominator string `json:"denominator,omitempty"`
	// Series is the threshold/slope input.
	Series string `json:"series,omitempty"`
	// Objective: for burn_rate the error budget as a fraction (0.01 =
	// 1% of events may be bad); for threshold/slope the compared bound.
	Objective float64 `json:"objective"`
	// Direction for threshold/slope: "above" (default) fires when the
	// reduction is at least Objective, "below" when at most.
	Direction string `json:"direction,omitempty"`
	// ShortWindow/LongWindow are the two evaluation windows
	// (defaults 5m and 1h).
	ShortWindow Duration `json:"short_window,omitempty"`
	LongWindow  Duration `json:"long_window,omitempty"`
	// Burn is the burn-rate multiple that fires (default 1: spending
	// budget exactly at the sustainable rate).
	Burn float64 `json:"burn,omitempty"`
}

func (r *SLORule) normalize() error {
	if r.Name == "" {
		return fmt.Errorf("fleetops: SLO rule missing name")
	}
	if r.Kind == "" {
		r.Kind = SLOBurnRate
	}
	switch r.Kind {
	case SLOBurnRate:
		if r.Numerator == "" || r.Denominator == "" {
			return fmt.Errorf("fleetops: SLO rule %s: burn_rate needs numerator and denominator", r.Name)
		}
		if r.Objective <= 0 || r.Objective >= 1 {
			return fmt.Errorf("fleetops: SLO rule %s: burn_rate objective must be in (0,1)", r.Name)
		}
	case SLOThreshold, SLOSlope:
		if r.Series == "" {
			return fmt.Errorf("fleetops: SLO rule %s: %s needs a series", r.Name, r.Kind)
		}
	default:
		return fmt.Errorf("fleetops: SLO rule %s: unknown kind %q", r.Name, r.Kind)
	}
	switch r.Direction {
	case "":
		r.Direction = "above"
	case "above", "below":
	default:
		return fmt.Errorf("fleetops: SLO rule %s: direction must be above or below", r.Name)
	}
	if r.ShortWindow <= 0 {
		r.ShortWindow = Duration(5 * time.Minute)
	}
	if r.LongWindow <= 0 {
		r.LongWindow = Duration(time.Hour)
	}
	if r.Burn <= 0 {
		r.Burn = 1
	}
	return nil
}

// SLOWindow is one window's evaluated state in the status payload.
type SLOWindow struct {
	Window Duration `json:"window"`
	Value  float64  `json:"value"`
	Breach bool     `json:"breach"`
	OK     bool     `json:"ok"` // false: history too short to evaluate
}

// SLOStatus is one rule's last evaluation.
type SLOStatus struct {
	Rule      SLORule   `json:"rule"`
	Short     SLOWindow `json:"short"`
	Long      SLOWindow `json:"long"`
	Firing    bool      `json:"firing"`
	LastFired time.Time `json:"last_fired,omitzero"`
}

// SLOStats is the SLO section of /metrics.
type SLOStats struct {
	Rules     int    `json:"rules"`
	Evaluated uint64 `json:"evaluated"`
	Fired     uint64 `json:"fired"`
	Firing    int    `json:"firing"`
}

// SLOEngine evaluates declarative objectives against the metric
// history and fires breaches through the latch the Alerter uses: one
// alert when both windows first breach, re-armed when either window
// clears, fanned out onto the bus and the hardened delivery pipeline.
type SLOEngine struct {
	src   HistorySource
	latch latch // latch.mu also guards status

	rules  []SLORule
	status []SLOStatus
}

// NewSLOEngine validates the rules and wires the engine. bus and
// deliverer may each be nil.
func NewSLOEngine(src HistorySource, rules []SLORule, bus *Bus, deliverer *Deliverer) (*SLOEngine, error) {
	if src == nil {
		return nil, fmt.Errorf("fleetops: SLO engine needs a history source")
	}
	seen := make(map[string]bool, len(rules))
	norm := make([]SLORule, len(rules))
	for i := range rules {
		norm[i] = rules[i]
		if err := norm[i].normalize(); err != nil {
			return nil, err
		}
		if seen[norm[i].Name] {
			return nil, fmt.Errorf("fleetops: duplicate SLO rule %s", norm[i].Name)
		}
		seen[norm[i].Name] = true
	}
	return &SLOEngine{
		src:    src,
		latch:  newLatch(bus, deliverer),
		rules:  norm,
		status: make([]SLOStatus, len(norm)),
	}, nil
}

// evalWindow reduces one rule over one window.
func (e *SLOEngine) evalWindow(r *SLORule, w Duration, now time.Time) SLOWindow {
	out := SLOWindow{Window: w}
	win := time.Duration(w)
	switch r.Kind {
	case SLOBurnRate:
		num, okN := e.src.Increase(r.Numerator, win, now)
		den, okD := e.src.Increase(r.Denominator, win, now)
		if !okN || !okD || den <= 0 {
			return out
		}
		out.OK = true
		out.Value = (num / den) / r.Objective // burn-rate multiple
		out.Breach = out.Value >= r.Burn
	case SLOThreshold:
		v, ok := e.src.Avg(r.Series, win, now)
		if !ok {
			return out
		}
		out.OK = true
		out.Value = v
		out.Breach = breach(v, r.Objective, r.Direction)
	case SLOSlope:
		v, ok := e.src.Slope(r.Series, win, now)
		if !ok {
			return out
		}
		out.OK = true
		out.Value = v
		out.Breach = breach(v, r.Objective, r.Direction)
	}
	return out
}

func breach(v, objective float64, direction string) bool {
	if direction == "below" {
		return v <= objective
	}
	return v >= objective
}

// EvaluateOnce runs every rule against the history as of now and fires
// newly breaching rules through the bus and delivery pipeline. It is
// deterministic given the history contents and now, and returns the
// alerts fired this pass.
func (e *SLOEngine) EvaluateOnce(now time.Time) []Alert {
	if e == nil {
		return nil
	}
	e.latch.mu.Lock()
	var fired []Alert
	for i := range e.rules {
		r := &e.rules[i]
		short := e.evalWindow(r, r.ShortWindow, now)
		long := e.evalWindow(r, r.LongWindow, now)
		active := short.OK && long.OK && short.Breach && long.Breach
		st := SLOStatus{Rule: *r, Short: short, Long: long, Firing: active,
			LastFired: e.status[i].LastFired}
		if e.latch.edgeLocked(r.Name, active) {
			a := Alert{
				Fleet:     "slo",
				Rule:      r.Name,
				Epoch:     int(now.Unix()),
				Value:     short.Value,
				Threshold: e.fireThreshold(r),
				Message: fmt.Sprintf("SLO %s (%s) breached: short %v=%.4g, long %v=%.4g",
					r.Name, r.Kind, time.Duration(r.ShortWindow), short.Value,
					time.Duration(r.LongWindow), long.Value),
				Time: now.UTC(),
			}
			a.ID = fmt.Sprintf("slo/%s/%d", r.Name, now.Unix())
			st.LastFired = now.UTC()
			fired = append(fired, a)
		}
		e.status[i] = st
	}
	e.latch.mu.Unlock()
	e.latch.fanOut("slo", fired)
	return fired
}

// fireThreshold is the alert's threshold field: the burn multiple for
// burn-rate rules, the objective otherwise.
func (e *SLOEngine) fireThreshold(r *SLORule) float64 {
	if r.Kind == SLOBurnRate {
		return r.Burn
	}
	return r.Objective
}

// Status returns every rule's last evaluation.
func (e *SLOEngine) Status() []SLOStatus {
	if e == nil {
		return nil
	}
	e.latch.mu.Lock()
	defer e.latch.mu.Unlock()
	out := make([]SLOStatus, len(e.status))
	copy(out, e.status)
	return out
}

// Stats returns the SLO counter section.
func (e *SLOEngine) Stats() SLOStats {
	if e == nil {
		return SLOStats{}
	}
	e.latch.mu.Lock()
	defer e.latch.mu.Unlock()
	firing := 0
	for _, st := range e.status {
		if st.Firing {
			firing++
		}
	}
	return SLOStats{Rules: len(e.rules), Evaluated: e.latch.evaluated, Fired: e.latch.fired, Firing: firing}
}

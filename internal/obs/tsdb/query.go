package tsdb

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"penelope/internal/obs"
)

// ErrNotFound reports a query against a name the history has never
// seen — neither a live registry family nor a series loaded from disk.
var ErrNotFound = errors.New("tsdb: no such series")

// Query is one range query.
type Query struct {
	// Name is a family name ("penelope_jobs_total",
	// "penelope_http_request_seconds") or a flat series name with a
	// histogram suffix ("penelope_store_write_seconds#count").
	Name string
	// Label filters a vec family to one cell; empty returns every cell.
	Label string
	// From/To bound the range (inclusive), Step the boundary spacing.
	From, To time.Time
	Step     time.Duration
	// Agg selects the per-window reduction: counters accept "rate"
	// (default) and "increase"; gauges "last" (default), "avg", "min",
	// "max"; histograms "quantile" (default, with Quantile), "rate"
	// (count rate) and "avg" (sum delta over count delta).
	Agg string
	// Quantile is the target for Agg "quantile" (e.g. 0.99).
	Quantile float64
}

// Point is one evaluated sample.
type Point struct {
	T int64   `json:"t"` // unix milliseconds (window end / boundary)
	V float64 `json:"v"`
}

// SeriesData is one evaluated series (one per vec cell).
type SeriesData struct {
	Value  string  `json:"value,omitempty"` // vec label value
	Points []Point `json:"points"`
}

// Result is the range-query payload.
type Result struct {
	Name     string       `json:"name"`
	Kind     string       `json:"kind"`
	Agg      string       `json:"agg"`
	Quantile float64      `json:"quantile,omitempty"`
	Label    string       `json:"label,omitempty"`
	FromMs   int64        `json:"from_ms"`
	ToMs     int64        `json:"to_ms"`
	StepMs   int64        `json:"step_ms"`
	Series   []SeriesData `json:"series"`
}

// queryMilli converts t to unix milliseconds, refusing times more than
// 2^61 ms (~73 million years) from the epoch: UnixMilli overflows int64
// near 2^63 ms, and within 2^61 the span, point count and boundary
// arithmetic of a query cannot overflow.
func queryMilli(t time.Time) (int64, error) {
	const limit = (1 << 61) / 1000
	if sec := t.Unix(); sec <= -limit || sec >= limit {
		return 0, fmt.Errorf("tsdb: time %d s is out of range", sec)
	}
	return t.UnixMilli(), nil
}

// statPoint is the tier-independent shape query evaluation runs on:
// raw points widen to cnt-1 windows, aggregate tiers pass through.
type statPoint struct {
	t    int64
	min  float64
	max  float64
	sum  float64
	last float64
	cnt  uint32
}

// Query evaluates a range query against the history.
func (db *DB) Query(q Query) (*Result, error) {
	if q.Step <= 0 {
		return nil, fmt.Errorf("tsdb: step must be positive")
	}
	if !q.To.After(q.From) {
		return nil, fmt.Errorf("tsdb: empty range")
	}
	fromMs, err := queryMilli(q.From)
	if err != nil {
		return nil, err
	}
	toMs, err := queryMilli(q.To)
	if err != nil {
		return nil, err
	}
	stepMs := q.Step.Milliseconds()
	if stepMs <= 0 {
		stepMs = 1
	}
	if n := (toMs-fromMs)/stepMs + 1; n > 100000 {
		return nil, fmt.Errorf("tsdb: range/step yields %d points (max 100000)", n)
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.haveBound || db.cfg.Registry.Version() != db.bindVersion {
		db.rebind()
	}

	bounds := make([]int64, 0, (toMs-fromMs)/stepMs+1)
	for t := fromMs; t <= toMs; t += stepMs {
		bounds = append(bounds, t)
	}

	res := &Result{
		Name: q.Name, Agg: q.Agg, Label: q.Label,
		FromMs: fromMs, ToMs: toMs, StepMs: stepMs,
	}

	if m, ok := db.meta[q.Name]; ok {
		res.Kind = m.Kind
		switch m.Kind {
		case "counter":
			if res.Agg == "" {
				res.Agg = "rate"
			}
			st := db.collect(q.Name, fromMs, toMs)
			res.Series = []SeriesData{{Points: evalCounter(st, bounds, res.Agg, stepMs)}}
			return res, nil
		case "gauge":
			if res.Agg == "" {
				res.Agg = "last"
			}
			for _, cell := range m.cells(q.Label) {
				st := db.collect(m.series(cell), fromMs, toMs)
				res.Series = append(res.Series, SeriesData{Value: cell, Points: evalGauge(st, bounds, res.Agg)})
			}
			return res, nil
		case "histogram":
			if res.Agg == "" {
				res.Agg = "quantile"
			}
			if res.Agg == "quantile" {
				if q.Quantile <= 0 || q.Quantile > 1 {
					return nil, fmt.Errorf("tsdb: quantile must be in (0,1], got %v", q.Quantile)
				}
				res.Quantile = q.Quantile
			}
			for _, cell := range m.cells(q.Label) {
				pts, err := db.evalHistogram(m, cell, bounds, res.Agg, q.Quantile, stepMs)
				if err != nil {
					return nil, err
				}
				res.Series = append(res.Series, SeriesData{Value: cell, Points: pts})
			}
			return res, nil
		}
	}

	// Not a live family: flat series (histogram components, or series
	// loaded from blocks whose family no longer registers) query as
	// gauges on their stored values.
	if _, ok := db.series[q.Name]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, q.Name)
	}
	res.Kind = "series"
	if res.Agg == "" {
		res.Agg = "last"
	}
	res.Series = []SeriesData{{Points: evalGauge(db.collect(q.Name, fromMs, toMs), bounds, res.Agg)}}
	return res, nil
}

// cells lists the label values a query over the family reads: the one
// it names, every value of a vec family, or the one unlabelled series.
func (m *FamilyMeta) cells(label string) []string {
	switch {
	case m.Label == "":
		return []string{""}
	case label != "":
		return []string{label}
	}
	return m.Values
}

// series names the flat series a cell of the family samples into: the
// family's own name, or name{value} for a cell of a vec.
func (m *FamilyMeta) series(cell string) string {
	if m.Label == "" {
		return m.Name
	}
	return m.Name + "{" + cell + "}"
}

// collect gathers a series' points overlapping [fromMs, toMs] from the
// finest tier that still covers fromMs, widened to statPoints. One
// point before fromMs rides along so boundary carry-forward and rate
// deltas have a left neighbor. Callers hold db.mu.
func (db *DB) collect(name string, fromMs, toMs int64) []statPoint {
	s, ok := db.series[name]
	if !ok {
		return nil
	}
	// Raw covers the range if it has not wrapped, or its oldest retained
	// point predates the range start.
	if s.raw.Len() > 0 && (!s.raw.Full() || s.raw.At(0).t <= fromMs) {
		return rawStats(&s.raw, fromMs, toMs)
	}
	if s.t1.Len() > 0 && (!s.t1.Full() || s.t1.At(0).t <= fromMs) {
		return aggStats(&s.t1, &s.f1, fromMs, toMs)
	}
	if s.t2.Len() > 0 || s.f2.cnt > 0 {
		return aggStats(&s.t2, &s.f2, fromMs, toMs)
	}
	return rawStats(&s.raw, fromMs, toMs)
}

func rawStats(r *obs.Ring[point], fromMs, toMs int64) []statPoint {
	var out []statPoint
	for i := 0; i < r.Len(); i++ {
		p := r.At(i)
		if p.t > toMs {
			break
		}
		sp := statPoint{t: p.t, min: p.v, max: p.v, sum: p.v, last: p.v, cnt: 1}
		if p.t < fromMs {
			// Keep only the newest point left of the range.
			if len(out) == 1 && out[0].t < fromMs {
				out[0] = sp
				continue
			}
		}
		out = append(out, sp)
	}
	return out
}

func aggStats(r *obs.Ring[aggPoint], f *fold, fromMs, toMs int64) []statPoint {
	var out []statPoint
	push := func(sp statPoint) {
		if sp.t > toMs {
			return
		}
		if sp.t < fromMs && len(out) == 1 && out[0].t < fromMs {
			out[0] = sp
			return
		}
		out = append(out, sp)
	}
	for i := 0; i < r.Len(); i++ {
		p := r.At(i)
		push(statPoint{t: p.t, min: p.min, max: p.max, sum: p.sum, last: p.last, cnt: p.cnt})
	}
	// The in-progress fold is the newest window; without it the query
	// edge lags a full window behind live data.
	if f.cnt > 0 {
		push(statPoint{t: f.start, min: f.min, max: f.max, sum: f.sum, last: f.last, cnt: f.cnt})
	}
	return out
}

// lastAt returns, per boundary, the last value at or before it (NaN
// when no point precedes the boundary).
func lastAt(st []statPoint, bounds []int64) []float64 {
	out := make([]float64, len(bounds))
	j := 0
	cur := math.NaN()
	for i, b := range bounds {
		for j < len(st) && st[j].t <= b {
			cur = st[j].last
			j++
		}
		out[i] = cur
	}
	return out
}

// evalCounter reduces a cumulative-counter series: "rate" is the
// per-second increase across each step, "increase" the raw delta.
// Counter resets (delta < 0) restart from the new value.
func evalCounter(st []statPoint, bounds []int64, agg string, stepMs int64) []Point {
	vals := lastAt(st, bounds)
	var out []Point
	for i := 1; i < len(bounds); i++ {
		prev, cur := vals[i-1], vals[i]
		if math.IsNaN(prev) || math.IsNaN(cur) {
			continue
		}
		d := cur - prev
		if d < 0 {
			d = cur
		}
		switch agg {
		case "increase":
			out = append(out, Point{T: bounds[i], V: d})
		default: // rate
			out = append(out, Point{T: bounds[i], V: d / (float64(stepMs) / 1000)})
		}
	}
	return out
}

// evalGauge reduces a gauge series: "last" carries the most recent
// value forward to each boundary; "avg"/"min"/"max" reduce the points
// inside each (prev, boundary] window and skip empty windows.
func evalGauge(st []statPoint, bounds []int64, agg string) []Point {
	var out []Point
	if agg == "last" || agg == "" {
		vals := lastAt(st, bounds)
		for i, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			out = append(out, Point{T: bounds[i], V: v})
		}
		return out
	}
	j := 0
	// Skip points at or before the first boundary: windows are
	// (bounds[i-1], bounds[i]].
	for j < len(st) && st[j].t <= bounds[0] {
		j++
	}
	for i := 1; i < len(bounds); i++ {
		var (
			mn, mx, sum float64
			cnt         uint64
		)
		for j < len(st) && st[j].t <= bounds[i] {
			p := st[j]
			if cnt == 0 {
				mn, mx = p.min, p.max
			} else {
				mn = math.Min(mn, p.min)
				mx = math.Max(mx, p.max)
			}
			sum += p.sum
			cnt += uint64(p.cnt)
			j++
		}
		if cnt == 0 {
			continue
		}
		switch agg {
		case "min":
			out = append(out, Point{T: bounds[i], V: mn})
		case "max":
			out = append(out, Point{T: bounds[i], V: mx})
		case "avg":
			out = append(out, Point{T: bounds[i], V: sum / float64(cnt)})
		default:
			return nil
		}
	}
	return out
}

// evalHistogram reassembles a histogram cell from its flat component
// series and reduces each step window: "quantile" estimates from the
// windowed bucket increments, "avg" is Δsum/Δcount, "rate" Δcount/s.
// Callers hold db.mu.
func (db *DB) evalHistogram(m *FamilyMeta, cell string, bounds []int64, agg string, q float64, stepMs int64) ([]Point, error) {
	base := m.series(cell)
	fromMs, toMs := bounds[0], bounds[len(bounds)-1]
	count := lastAt(db.collect(base+"#count", fromMs, toMs), bounds)
	switch agg {
	case "rate":
		var out []Point
		for i := 1; i < len(bounds); i++ {
			d, ok := windowDelta(count[i-1], count[i])
			if !ok {
				continue
			}
			out = append(out, Point{T: bounds[i], V: d / (float64(stepMs) / 1000)})
		}
		return out, nil
	case "avg":
		sum := lastAt(db.collect(base+"#sum", fromMs, toMs), bounds)
		var out []Point
		for i := 1; i < len(bounds); i++ {
			dc, ok := windowDelta(count[i-1], count[i])
			if !ok || dc == 0 {
				continue
			}
			ds := sum[i] - sum[i-1]
			if math.IsNaN(ds) || ds < 0 {
				continue
			}
			out = append(out, Point{T: bounds[i], V: ds / dc})
		}
		return out, nil
	case "quantile":
		nb := len(m.Bounds)
		cum := make([][]float64, nb)
		for bi := 0; bi < nb; bi++ {
			cum[bi] = lastAt(db.collect(base+"#b"+itoa(bi), fromMs, toMs), bounds)
		}
		snap := obs.HistogramSnapshot{Bounds: m.Bounds, Counts: make([]uint64, nb+1)}
		var out []Point
		for i := 1; i < len(bounds); i++ {
			dc, ok := windowDelta(count[i-1], count[i])
			if !ok || dc == 0 {
				continue
			}
			// Window increment per cumulative bucket, then de-cumulate
			// into the snapshot's per-bucket counts (+Inf slot last).
			valid, prevCum := true, 0.0
			total := uint64(0)
			for bi := 0; bi < nb; bi++ {
				d, ok := windowDelta(cum[bi][i-1], cum[bi][i])
				if !ok || d < prevCum {
					valid = false
					break
				}
				snap.Counts[bi] = uint64(d - prevCum)
				total += snap.Counts[bi]
				prevCum = d
			}
			if !valid {
				continue
			}
			inf := uint64(0)
			if dcU := uint64(dc); dcU > total {
				inf = dcU - total
			}
			snap.Counts[nb] = inf
			snap.Count = total + inf
			v := snap.Quantile(q)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			out = append(out, Point{T: bounds[i], V: v})
		}
		return out, nil
	}
	return nil, fmt.Errorf("tsdb: unknown histogram agg %q", agg)
}

// windowDelta is the reset-aware increment between two cumulative
// samples; !ok when either side is missing.
func windowDelta(prev, cur float64) (float64, bool) {
	if math.IsNaN(prev) || math.IsNaN(cur) {
		return 0, false
	}
	d := cur - prev
	if d < 0 {
		d = cur
	}
	return d, true
}

// --- SLO window reductions (fleetops.HistorySource) ---

// windowStats returns the statPoints of a flat series in
// [now-window, now], plus one left neighbor.
func (db *DB) windowStats(name string, window time.Duration, now time.Time) []statPoint {
	toMs := now.UnixMilli()
	return db.collect(name, toMs-window.Milliseconds(), toMs)
}

// resolve maps a rule's series reference to a flat series name: exact
// flat names pass through; a counter/gauge family name maps to itself;
// a histogram family name maps to its #count series (optionally with a
// "{cell}" already embedded by the rule author).
func (db *DB) resolve(name string) string {
	if strings.ContainsRune(name, '#') {
		return name
	}
	fam := name
	if i := strings.IndexByte(fam, '{'); i >= 0 {
		fam = fam[:i]
	}
	if m, ok := db.meta[fam]; ok && m.Kind == "histogram" {
		return name + "#count"
	}
	return name
}

// Increase returns the reset-aware increase of a cumulative series over
// the trailing window. ok is false with fewer than two points.
func (db *DB) Increase(name string, window time.Duration, now time.Time) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := db.windowStats(db.resolve(name), window, now)
	if len(st) < 2 {
		return 0, false
	}
	total := 0.0
	for i := 1; i < len(st); i++ {
		d := st[i].last - st[i-1].last
		if d < 0 {
			d = st[i].last
		}
		total += d
	}
	return total, true
}

// Avg returns the mean sampled value over the trailing window.
func (db *DB) Avg(name string, window time.Duration, now time.Time) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := db.windowStats(db.resolve(name), window, now)
	fromMs := now.UnixMilli() - window.Milliseconds()
	sum, cnt := 0.0, uint64(0)
	for _, p := range st {
		if p.t < fromMs {
			continue
		}
		sum += p.sum
		cnt += uint64(p.cnt)
	}
	if cnt == 0 {
		return 0, false
	}
	return sum / float64(cnt), true
}

// Slope returns the least-squares trend of the series over the
// trailing window, in value units per second.
func (db *DB) Slope(name string, window time.Duration, now time.Time) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := db.windowStats(db.resolve(name), window, now)
	fromMs := now.UnixMilli() - window.Milliseconds()
	var xs, ys []float64
	for _, p := range st {
		if p.t < fromMs {
			continue
		}
		xs = append(xs, float64(p.t)/1000)
		ys = append(ys, p.last)
	}
	if len(xs) < 2 || xs[len(xs)-1] == xs[0] {
		return 0, false
	}
	// Center on the means before accumulating: epoch-scale x values
	// would otherwise lose the (tiny) variance to cancellation.
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var num, den float64
	for i := range xs {
		dx := xs[i] - mx
		num += dx * (ys[i] - my)
		den += dx * dx
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// Package obs is the dependency-free observability core under the
// Penelope serving stack: atomic counters and gauges, fixed-bucket
// log-spaced histograms with a lock-free hot path, a named metric
// registry with Prometheus text-format exposition, a lightweight
// per-job span tracer with bounded in-memory rings, and structured
// logging helpers on log/slog.
//
// Everything is nil-safe: a nil *Counter, *Gauge, *Histogram, *Trace
// or *Tracer turns every method into a no-op, so instrumented packages
// (store, fleetops) cost nothing when constructed without instruments
// — tests and benchmarks that build components directly are untouched.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 metric (stored as float bits, so Set and
// Value are single atomic operations).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with inclusive upper bounds
// (Prometheus `le` semantics) plus an implicit +Inf overflow bucket.
// Observe is lock-free: one atomic bucket increment and one CAS-loop
// float add for the sum, so it is safe on hot paths and under
// concurrent Snapshot.
type Histogram struct {
	bounds  []float64 // sorted inclusive upper bounds; +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given sorted upper bounds.
// Most callers want Registry.Histogram instead, which also names and
// exposes it.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the inclusive bucket; beyond every bound it
	// lands in the +Inf overflow slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts aligned with Bounds plus the overflow count
// in the final slot.
type HistogramSnapshot struct {
	Bounds []float64 // inclusive upper bounds; Counts has one extra +Inf slot
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Bounds returns the sorted inclusive upper bounds. The slice is the
// histogram's own — callers must not mutate it.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// ReadInto copies the per-bucket (non-cumulative) counts into dst —
// which must have len(Bounds())+1 slots — and returns the total count
// and sum: Snapshot without the allocation, for samplers on a cadence.
func (h *Histogram) ReadInto(dst []uint64) (count uint64, sum float64) {
	if h == nil {
		return 0, 0
	}
	sum = math.Float64frombits(h.sumBits.Load())
	for i := range h.counts {
		c := h.counts[i].Load()
		dst[i] = c
		count += c
	}
	return count, sum
}

// Snapshot copies the histogram state. Concurrent Observe calls may or
// may not be included; counts and sum are each individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// ExpBuckets returns n log-spaced bucket bounds: start, start*factor,
// start*factor^2, ... — the shape latency and size distributions want.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 1µs to ~67s in powers of two — wide enough for
// HTTP handlers and multi-second fleet simulations alike.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 27) }

// ByteBuckets spans 64B to ~1GB in powers of four — result payloads,
// checkpoints and store frames.
func ByteBuckets() []float64 { return ExpBuckets(64, 4, 13) }

// maxLabelValues bounds a HistogramVec's label cardinality; values past
// it aggregate under "~other" so a hostile label can never grow the
// registry without bound.
const maxLabelValues = 64

// HistogramVec is a histogram family partitioned by one label.
type HistogramVec struct {
	label  string
	bounds []float64
	ver    *atomic.Uint64 // owning registry's version; bumped on new cells

	mu   sync.Mutex
	byLV map[string]*Histogram
}

// With returns the histogram for one label value, creating it on first
// use. Past maxLabelValues distinct values, observations aggregate
// under the "~other" cell.
func (v *HistogramVec) With(labelValue string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.byLV[labelValue]; ok {
		return h
	}
	if len(v.byLV) >= maxLabelValues {
		labelValue = "~other"
		if h, ok := v.byLV[labelValue]; ok {
			return h
		}
	}
	h := NewHistogram(v.bounds)
	v.byLV[labelValue] = h
	if v.ver != nil {
		v.ver.Add(1)
	}
	return h
}

// VecEntry is one (label value, histogram) cell of a HistogramVec.
type VecEntry struct {
	Value string
	Hist  *Histogram
}

// Entries appends one entry per label value, sorted by value, to dst
// and returns it. Callers reuse dst across calls to avoid allocating.
func (v *HistogramVec) Entries(dst []VecEntry) []VecEntry {
	if v == nil {
		return dst
	}
	v.mu.Lock()
	start := len(dst)
	for lv, h := range v.byLV {
		dst = append(dst, VecEntry{Value: lv, Hist: h})
	}
	v.mu.Unlock()
	s := dst[start:]
	sort.Slice(s, func(i, j int) bool { return s[i].Value < s[j].Value })
	return dst
}

// snapshot returns the label values in sorted order with their
// histograms' snapshots.
func (v *HistogramVec) snapshot() ([]string, []HistogramSnapshot) {
	v.mu.Lock()
	values := make([]string, 0, len(v.byLV))
	for lv := range v.byLV {
		values = append(values, lv)
	}
	sort.Strings(values)
	hists := make([]HistogramSnapshot, len(values))
	for i, lv := range values {
		hists[i] = v.byLV[lv].Snapshot()
	}
	v.mu.Unlock()
	return values, hists
}

// kind is the exposition type of a registered family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// family is one named metric family in a registry.
type family struct {
	name, help string
	kind       kind
	labels     []Label // constant labels (GaugeConst); nil for everything else

	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	cellLabel string      // GaugeFuncVec's label
	cells     []GaugeCell // GaugeFuncVec's sample lines, by label value
	hist      *Histogram
	vec       *HistogramVec
}

// Registry names and exposes metrics. Each server owns its own
// registry (no global state), so tests and multi-server processes
// never collide on registration.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// version moves whenever the family set — or any vec's label-value
	// set — changes, so samplers can cache per-family bindings and
	// rebuild them only when the registry actually grew.
	version atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// register adds a family, panicking on an invalid or duplicate name —
// both are programmer errors worth failing loudly at startup.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic("obs: invalid metric name " + f.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[f.name]; ok {
		panic("obs: duplicate metric " + f.name)
	}
	r.families[f.name] = f
	r.version.Add(1)
}

// Version is the registry's change counter: it moves when a family is
// registered or a vec gains a label value. Samplers snapshot it, cache
// their bindings, and rebuild only when it moves — the steady state
// allocates nothing.
func (r *Registry) Version() uint64 { return r.version.Load() }

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for counters that already live
// elsewhere (the service's job counters).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&family{name: name, help: help, kind: kindCounter, counterFn: fn})
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// GaugeCell is one sample line of a GaugeFuncVec family: its value of
// the family's label, and the function read for it at exposition time.
type GaugeCell struct {
	Value string
	Read  func() float64
}

// GaugeFuncVec registers a gauge family whose sample lines differ in one
// label, each read from its cell's function at exposition time: one name
// for a quantity several holders report, say. The cells are fixed at
// registration and render in label-value order.
func (r *Registry) GaugeFuncVec(name, help, label string, cells ...GaugeCell) {
	if !validName(label) {
		panic("obs: invalid label name " + label)
	}
	if len(cells) == 0 {
		panic("obs: gauge vec " + name + " has no cells")
	}
	cells = append([]GaugeCell(nil), cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Value < cells[j].Value })
	for i := 1; i < len(cells); i++ {
		if cells[i].Value == cells[i-1].Value {
			panic("obs: duplicate label value " + cells[i].Value + " in " + name)
		}
	}
	r.register(&family{name: name, help: help, kind: kindGauge, cellLabel: label, cells: cells})
}

// Histogram registers and returns a new histogram over bounds (nil
// bounds use LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets()
	}
	h := NewHistogram(bounds)
	r.register(&family{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// HistogramVec registers and returns a histogram family partitioned by
// one label (nil bounds use LatencyBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = LatencyBuckets()
	}
	if !validName(label) {
		panic("obs: invalid label name " + label)
	}
	v := &HistogramVec{label: label, bounds: bounds, ver: &r.version, byLV: make(map[string]*Histogram)}
	r.register(&family{name: name, help: help, kind: kindHistogram, vec: v})
	return v
}

// sorted returns the registered families ordered by name, so the
// exposition is deterministic.
func (r *Registry) sorted() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed segment of a trace.
type span struct {
	name  string
	start time.Time
	end   time.Time // zero while the span is open
	attrs map[string]string
}

// Trace is a sequence of contiguous spans for one unit of work (a job,
// a store operation, a fleet tick). Phase transitions close the current
// span and open the next at the same instant, so a finished trace is
// monotonic and gap-free by construction.
type Trace struct {
	id        string
	component string
	start     time.Time

	mu    sync.Mutex
	spans []span
	done  bool
	end   time.Time
}

// Phase ends the current span and starts a new one named name at the
// same timestamp. No-op after Finish.
func (t *Trace) Phase(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	if n := len(t.spans); n > 0 && t.spans[n-1].end.IsZero() {
		t.spans[n-1].end = now
	}
	t.spans = append(t.spans, span{name: name, start: now})
}

// Attr attaches a key/value to the current (most recent) span.
func (t *Trace) Attr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans)
	if n == 0 {
		return
	}
	if t.spans[n-1].attrs == nil {
		t.spans[n-1].attrs = make(map[string]string, 2)
	}
	t.spans[n-1].attrs[key] = value
}

// Finish closes the current span and marks the trace complete.
// Idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	if n := len(t.spans); n > 0 && t.spans[n-1].end.IsZero() {
		t.spans[n-1].end = now
	}
	t.done = true
	t.end = now
}

// SpanSnapshot is one span rendered for the trace API: start as a
// nanosecond offset from the trace start, so consumers see monotonic,
// gap-free segments without wall-clock skew.
type SpanSnapshot struct {
	Name       string            `json:"name"`
	StartNS    int64             `json:"start_ns"`
	DurationNS int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceSnapshot is a point-in-time copy of a trace for the trace API.
type TraceSnapshot struct {
	ID         string         `json:"trace_id"`
	Component  string         `json:"component"`
	Start      time.Time      `json:"start"`
	Done       bool           `json:"done"`
	DurationNS int64          `json:"duration_ns"`
	Spans      []SpanSnapshot `json:"spans"`
}

// Snapshot copies the trace. Open spans (and an unfinished trace) are
// rendered as extending to now. A nil trace snapshots as empty.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSnapshot{
		ID:        t.id,
		Component: t.component,
		Start:     t.start,
		Done:      t.done,
		Spans:     make([]SpanSnapshot, 0, len(t.spans)),
	}
	end := t.end
	if !t.done {
		end = now
	}
	s.DurationNS = end.Sub(t.start).Nanoseconds()
	for _, sp := range t.spans {
		spEnd := sp.end
		if spEnd.IsZero() {
			spEnd = now
		}
		ss := SpanSnapshot{
			Name:       sp.name,
			StartNS:    sp.start.Sub(t.start).Nanoseconds(),
			DurationNS: spEnd.Sub(sp.start).Nanoseconds(),
		}
		if len(sp.attrs) > 0 {
			ss.Attrs = make(map[string]string, len(sp.attrs))
			for k, v := range sp.attrs {
				ss.Attrs[k] = v
			}
		}
		s.Spans = append(s.Spans, ss)
	}
	return s
}

// Tracer records traces in one bounded ring per component (for
// GET /v1/debug/traces). Memory is bounded regardless of traffic. It
// keeps no index by trace ID: whoever begins a trace holds it for as
// long as it answers for it, as the service's job map does for
// GET /v1/jobs/{id}/trace.
type Tracer struct {
	ringCap int

	mu    sync.Mutex
	rings map[string]*Ring[*Trace]
	seq   uint64
}

// defaultRingCap sizes each component ring: enough history to debug a
// burst without letting the tracer grow past a few MB.
const defaultRingCap = 256

// NewTracer returns a tracer with the default capacities.
func NewTracer() *Tracer {
	return &Tracer{
		ringCap: defaultRingCap,
		rings:   make(map[string]*Ring[*Trace]),
	}
}

// Begin starts a trace for id under component, opening its first span
// named firstPhase. The trace is immediately visible in the component
// ring.
func (tr *Tracer) Begin(id, component, firstPhase string) *Trace {
	if tr == nil {
		return nil
	}
	now := time.Now()
	t := &Trace{
		id:        id,
		component: component,
		start:     now,
		spans:     []span{{name: firstPhase, start: now}},
	}
	tr.mu.Lock()
	tr.pushRingLocked(component, t)
	tr.mu.Unlock()
	return t
}

// Record adds an already-measured single-span trace to a component ring
// — the one-shot form for store I/O, fleet ticks, alert deliveries and
// scrub passes, where the caller has start and duration in hand.
func (tr *Tracer) Record(component, name string, start time.Time, d time.Duration, attrs map[string]string) {
	if tr == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	end := start.Add(d)
	tr.mu.Lock()
	tr.seq++
	id := component + "-" + strconv.FormatUint(tr.seq, 10)
	t := &Trace{
		id:        id,
		component: component,
		start:     start,
		done:      true,
		end:       end,
		spans:     []span{{name: name, start: start, end: end, attrs: attrs}},
	}
	tr.pushRingLocked(component, t)
	tr.mu.Unlock()
}

// pushRingLocked appends to a component ring, evicting the oldest entry
// past capacity. Caller holds tr.mu.
func (tr *Tracer) pushRingLocked(component string, t *Trace) {
	ring := tr.rings[component]
	if ring == nil {
		r := NewRing[*Trace](tr.ringCap)
		ring = &r
		tr.rings[component] = ring
	}
	ring.Push(t)
}

// Recent returns up to n most-recent traces for a component, newest
// first. n <= 0 means the whole ring.
func (tr *Tracer) Recent(component string, n int) []TraceSnapshot {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	ring := tr.rings[component]
	size := 0
	if ring != nil {
		size = ring.Len()
	}
	if n <= 0 || n > size {
		n = size
	}
	picked := make([]*Trace, n)
	for i := 0; i < n; i++ {
		picked[i] = ring.At(size - 1 - i)
	}
	tr.mu.Unlock()
	out := make([]TraceSnapshot, n)
	for i, t := range picked {
		out[i] = t.Snapshot()
	}
	return out
}

// Components returns the component names with recorded traces, sorted.
func (tr *Tracer) Components() []string {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	out := make([]string, 0, len(tr.rings))
	for c := range tr.rings {
		out = append(out, c)
	}
	tr.mu.Unlock()
	sort.Strings(out)
	return out
}

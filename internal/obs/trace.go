package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
	"unsafe"
)

// span is one segment of a trace: a name and its start as an offset
// from the trace start. Spans are contiguous, so a span ends where the
// next one starts, or where the trace ends.
type span struct {
	name string
	off  time.Duration
}

// Trace is a sequence of contiguous spans for one unit of work (a
// job). Phase transitions close the current span and open the next at
// the same instant, so a finished trace is monotonic and gap-free by
// construction. A trace holds only its phase marks: its owner names it
// and supplies its attributes when it is rendered. Not safe for
// concurrent use; the owner guards it with the lock that guards what
// those attributes are read from.
type Trace struct {
	wall  int64         // start, Unix nanoseconds
	mono  time.Duration // start, on the monotonic clock since traceEpoch
	end   time.Duration // offset of Finish; negative while open
	spans []span
}

// traceEpoch anchors traces' monotonic clock readings, so a trace keeps
// its start in two words rather than a time.Time's three.
var traceEpoch = time.Now()

// StartTrace returns a trace started now, its first span named
// firstPhase.
func StartTrace(firstPhase string) Trace {
	now := time.Now()
	// Room for two spans: a job that finds its result complete goes
	// straight from its first phase to done.
	spans := make([]span, 1, 2)
	spans[0].name = firstPhase
	return Trace{wall: now.UnixNano(), mono: now.Sub(traceEpoch), end: -1, spans: spans}
}

// elapsed is the time since the trace started.
func (t *Trace) elapsed() time.Duration { return time.Since(traceEpoch) - t.mono }

// Phase ends the current span and starts a new one named name at the
// same timestamp. No-op after Finish.
func (t *Trace) Phase(name string) {
	if t == nil {
		return
	}
	if t.end < 0 {
		t.spans = append(t.spans, span{name: name, off: t.elapsed()})
	}
}

// Finish closes the current span and marks the trace complete, cutting
// its spans to an exact-size slice. Idempotent.
func (t *Trace) Finish() {
	if t == nil || t.end >= 0 {
		return
	}
	t.end = t.elapsed()
	if len(t.spans) < cap(t.spans) {
		t.spans = append([]span(nil), t.spans...)
	}
}

// Since returns the time elapsed since the latest span named name
// started, or 0 if the trace has none.
func (t *Trace) Since(name string) time.Duration {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].name == name {
			return t.elapsed() - t.spans[i].off
		}
	}
	return 0
}

// Bytes is the heap the trace's spans hold, beyond the Trace itself.
// Span names are shared constants and cost nothing per trace.
func (t *Trace) Bytes() int64 {
	return int64(cap(t.spans)) * int64(unsafe.Sizeof(span{}))
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

// Snapshot renders the trace as trace id of component, without
// attributes. An open span (and an unfinished trace) is rendered as
// extending to now. A nil trace snapshots as empty.
func (t *Trace) Snapshot(id, component string) TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	end := t.end
	if end < 0 {
		end = t.elapsed()
	}
	s := TraceSnapshot{
		ID:         id,
		Component:  component,
		Start:      time.Unix(0, t.wall),
		Done:       t.end >= 0,
		DurationNS: end.Nanoseconds(),
		Spans:      make([]SpanSnapshot, len(t.spans)),
	}
	for i, sp := range t.spans {
		spEnd := end
		if i+1 < len(t.spans) {
			spEnd = t.spans[i+1].off
		}
		s.Spans[i] = SpanSnapshot{Name: sp.name, StartNS: sp.off.Nanoseconds(), DurationNS: (spEnd - sp.off).Nanoseconds()}
	}
	return s
}

// record is one already-measured single-span trace in a component ring.
type record struct {
	seq   uint64 // renders as the trace ID "<component>-<seq>"
	name  string
	start time.Time
	d     time.Duration
	attrs []string // key/value pairs
}

// Tracer records one-shot traces in one bounded ring per component
// (for GET /v1/debug/traces). Memory is bounded regardless of traffic.
// It keeps no index by trace ID.
type Tracer struct {
	mu    sync.Mutex
	rings map[string]*Ring[record]
	seq   uint64
}

// TraceRingCap sizes each component ring: enough history to debug a
// burst without letting the tracer grow past a few MB.
const TraceRingCap = 256

// NewTracer returns a tracer with the default capacities.
func NewTracer() *Tracer {
	return &Tracer{rings: make(map[string]*Ring[record])}
}

// Record adds an already-measured single-span trace to a component
// ring — the one-shot form for store I/O, fleet ticks, alert deliveries
// and scrub passes, where the caller has start and duration in hand.
// kv holds the span's attributes as key/value pairs; the ring keeps the
// slice as given.
func (tr *Tracer) Record(component, name string, start time.Time, d time.Duration, kv ...string) {
	if tr == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.seq++
	ring := tr.rings[component]
	if ring == nil {
		r := NewRing[record](TraceRingCap)
		ring = &r
		tr.rings[component] = ring
	}
	ring.Push(record{seq: tr.seq, name: name, start: start, d: d, attrs: kv})
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
	picked := make([]record, n)
	for i := range picked {
		picked[i] = ring.At(size - 1 - i)
	}
	tr.mu.Unlock()
	out := make([]TraceSnapshot, n)
	for i, r := range picked {
		sp := SpanSnapshot{Name: r.name, DurationNS: r.d.Nanoseconds()}
		if len(r.attrs) > 1 {
			sp.Attrs = make(map[string]string, len(r.attrs)/2)
			for j := 0; j+1 < len(r.attrs); j += 2 {
				sp.Attrs[r.attrs[j]] = r.attrs[j+1]
			}
		}
		out[i] = TraceSnapshot{
			ID:         component + "-" + strconv.FormatUint(r.seq, 10),
			Component:  component,
			Start:      r.start,
			Done:       true,
			DurationNS: sp.DurationNS,
			Spans:      []SpanSnapshot{sp},
		}
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

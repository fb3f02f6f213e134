package obs

// Ring is a fixed-capacity FIFO that overwrites its oldest element once
// full — the one bounded-history buffer behind the tracer's rings, the
// event bus's resume history, the metric-history tiers and the
// service's finished-job FIFO. Storage is allocated once by NewRing,
// so Push never allocates. Not safe for concurrent use; owners guard it
// with their own lock.
type Ring[T any] struct {
	buf  []T // len grows to cap, then stays there
	head int // index of the oldest element once full
}

// NewRing returns an empty ring holding at most capacity elements
// (at least one).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, 0, max(capacity, 1))}
}

// Push appends v. Once the ring is full it overwrites the oldest
// element and returns it with evicted true.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return old, false
	}
	old = r.buf[r.head]
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	return old, true
}

// Len returns the number of elements held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Full reports whether the ring has reached capacity (the next Push
// evicts).
func (r *Ring[T]) Full() bool { return len(r.buf) == cap(r.buf) }

// At returns the i-th oldest element, 0 <= i < Len().
func (r *Ring[T]) At(i int) T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

package obs

// Ring is a bounded FIFO that overwrites its oldest element once full —
// the one bounded-history buffer behind the tracer's rings, the event
// bus's resume history, the metric-history tiers and the service's
// finished-job FIFO.
//
// Storage grows with what the ring holds: NewRing allocates nothing,
// and Push doubles the buffer (never past the capacity) only when it is
// full but the ring is not, so a ring costs what it holds and a history
// sized for days costs little while it is young. Growth takes at most
// ⌈log2 capacity⌉+1 allocations over a ring's life; once the ring is
// full Push never allocates. Not safe for concurrent use; owners guard
// it with their own lock.
type Ring[T any] struct {
	buf      []T // len grows to capacity, then stays there
	head     int // index of the oldest element once full
	capacity int
}

// NewRing returns an empty ring holding at most capacity elements
// (at least one).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{capacity: max(capacity, 1)}
}

// Push appends v. Once the ring is full it overwrites the oldest
// element and returns it with evicted true.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			r.grow()
		}
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

// grow doubles the buffer, capped at the capacity. Until the ring is
// full head stays 0, so the elements are already in order.
func (r *Ring[T]) grow() {
	buf := make([]T, len(r.buf), min(max(2*cap(r.buf), 1), r.capacity))
	copy(buf, r.buf)
	r.buf = buf
}

// Len returns the number of elements held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Full reports whether the ring has reached capacity (the next Push
// evicts).
func (r *Ring[T]) Full() bool { return len(r.buf) == r.capacity }

// At returns the i-th oldest element, 0 <= i < Len().
func (r *Ring[T]) At(i int) T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// Package memo is the one single-flight cache in the tree. The first
// caller for a key leads and computes; concurrent callers wait and
// share its outcome. A failed computation is dropped, so the next
// caller retries. Completed values stay resident under a byte budget,
// evicted least recently used first; in-flight entries never are.
package memo

import (
	"container/list"
	"errors"
	"sync"
)

// ErrPanicked is what waiters see when the leader's fn panicked in Do.
var ErrPanicked = errors.New("memo: computation panicked")

// Entry is one key's slot, completed exactly once by its leader.
type Entry[K comparable, V any] struct {
	key   K
	done  chan struct{} // closed once val and err are set
	val   V
	err   error
	bytes int64         // charge while resident
	elem  *list.Element // recency list position; nil until resident
}

// Key returns the key the entry was acquired under. Every caller that
// shares the entry can share this one copy of the key.
func (e *Entry[K, V]) Key() K { return e.key }

// Wait blocks until the leader completes the entry.
func (e *Entry[K, V]) Wait() (V, error) {
	<-e.done
	return e.val, e.err
}

// Stats are a memo's counters, kept current so reading them is O(1).
// Bytes and Evictions stay out of the JSON form, whose shape the
// service's /metrics payload pins.
type Stats struct {
	Entries        int    `json:"entries"`         // completed values resident
	Bytes          int64  `json:"-"`               // bytes they charge
	Hits           uint64 `json:"hits"`            // Acquires finding a resident value
	Misses         uint64 `json:"misses"`          // Acquires that made the caller leader
	InflightDedups uint64 `json:"inflight_dedups"` // Acquires waiting on a running leader
	Evictions      uint64 `json:"-"`               // values dropped for the budget, oversize ones too
}

// Memo is a keyed single-flight cache with a byte budget.
type Memo[K comparable, V any] struct {
	budget  int64
	charge  func(V) int64
	mu      sync.Mutex
	entries map[K]*Entry[K, V]
	lru     list.List // resident entries, most recently used first
	stats   Stats
}

// New returns an empty memo that keeps budget bytes, charging charge(v).
func New[K comparable, V any](budget int64, charge func(V) int64) *Memo[K, V] {
	return &Memo[K, V]{budget: budget, charge: charge, entries: make(map[K]*Entry[K, V])}
}

// Acquire returns key's entry. A leader must compute it and Complete it;
// otherwise ready tells a resident value from one still being computed.
func (m *Memo[K, V]) Acquire(key K) (e *Entry[K, V], leader, ready bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e = m.entries[key]; e == nil {
		e = &Entry[K, V]{key: key, done: make(chan struct{})}
		m.entries[key] = e
		m.stats.Misses++
		return e, true, false
	}
	if e.elem == nil {
		m.stats.InflightDedups++
		return e, false, false
	}
	m.stats.Hits++
	m.lru.MoveToFront(e.elem)
	return e, false, true
}

// Get returns key's resident value, if any, without counting it.
func (m *Memo[K, V]) Get(key K) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[key]
	if e == nil || e.elem == nil {
		return v, false
	}
	m.lru.MoveToFront(e.elem)
	return e.val, true
}

// Complete releases a leader's waiters. A value becomes resident and
// evicts the least recently used past the budget; an error, or a value
// larger than the whole budget, is handed to the waiters and dropped.
func (m *Memo[K, V]) Complete(e *Entry[K, V], v V, err error) {
	e.val, e.err = v, err
	if err == nil {
		e.bytes = m.charge(v)
	}
	m.mu.Lock()
	switch {
	case err != nil:
		delete(m.entries, e.key)
	case e.bytes > m.budget:
		delete(m.entries, e.key)
		m.stats.Evictions++
	default:
		e.elem = m.lru.PushFront(e)
		m.stats.Bytes += e.bytes
		for m.stats.Bytes > m.budget {
			old := m.lru.Remove(m.lru.Back()).(*Entry[K, V])
			delete(m.entries, old.key)
			m.stats.Bytes -= old.bytes
			m.stats.Evictions++
		}
	}
	m.mu.Unlock()
	close(e.done)
}

// Do returns key's value, running fn if the caller leads. If fn
// panics, the entry completes with ErrPanicked, so waiters are released
// and the next call recomputes, and the panic continues.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	return m.DoIf(key, nil, fn)
}

// DoIf is Do for values that can fall short of a request: it returns
// only a value that fits accepts. A resident value fits rejects is
// dropped and replaced by the caller's fn, and a waiter whose leader's
// value fits rejects tries again. A nil fits accepts every value.
func (m *Memo[K, V]) DoIf(key K, fits func(V) bool, fn func() (V, error)) (V, error) {
	for {
		e, leader, _ := m.Acquire(key)
		if leader {
			return m.lead(e, fn)
		}
		v, err := e.Wait()
		if err != nil || fits == nil || fits(v) {
			return v, err
		}
		m.drop(e)
	}
}

// drop removes e if it is still its key's resident entry, so the next
// Acquire of the key leads a fresh computation.
func (m *Memo[K, V]) drop(e *Entry[K, V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[e.key] == e && e.elem != nil {
		m.lru.Remove(e.elem)
		e.elem = nil
		delete(m.entries, e.key)
		m.stats.Bytes -= e.bytes
	}
}

// lead runs fn for the leader of e and completes e with its outcome.
func (m *Memo[K, V]) lead(e *Entry[K, V], fn func() (V, error)) (v V, err error) {
	err = ErrPanicked // stands if fn never returns
	defer func() { m.Complete(e, v, err) }()
	return fn()
}

// Stats snapshots the counters.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Entries = m.lru.Len()
	return s
}

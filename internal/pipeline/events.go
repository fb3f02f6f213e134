package pipeline

// The event wheel schedules the core's deferred actions (issue, slot
// release, write-back, retire) as small typed records in per-cycle
// buckets, replacing a container/heap of closures: no per-uop closure
// allocations, no heap sift operations — scheduling is an append into the
// bucket of the target cycle and firing is a linear walk of the clock.
// Bucket slices are retained and reused across cycles, so a warmed-up
// wheel performs no allocation at all on the hot path.

// eventKind discriminates the deferred actions a core schedules.
type eventKind uint8

const (
	evIssue     eventKind = iota // mark operands ready and issue a scheduler slot
	evRelease                    // deallocate a scheduler slot
	evWriteInt                   // integer register write-back
	evWriteFP                    // FP register write-back
	evRetireInt                  // retire: free ROB slot and previous int register
	evRetireFP                   // retire: free ROB slot and previous FP register
)

// eventRec is one deferred action. The payload fields are a union over
// the kinds: arg holds the scheduler slot or the physical register
// (negative: none), val/ext the write-back data.
type eventRec struct {
	time uint64
	val  uint64
	arg  int32
	ext  uint16 // FP write-back extension bits (the 80-bit high bank)
	kind eventKind
}

const (
	wheelBits = 10
	// wheelSize is the wheel horizon in cycles. Every latency chain of
	// the core (execution latency + TLB and L2 penalties + redirect +
	// ROB-backpressure on retire) is far below it for any sane
	// configuration; events beyond the horizon spill to the overflow
	// list and are pulled back in as the clock advances.
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1

	// bucketInline is the per-cycle event capacity served without any
	// slice append; cycles with more events (stall-drain bursts) spill
	// into a per-bucket slice whose storage is reused after firing.
	bucketInline = 8
)

// bucket holds the events of one cycle: a fixed inline chunk plus a
// reusable spill slice, so steady-state scheduling allocates nothing.
type bucket struct {
	n     uint8
	evs   [bucketInline]eventRec
	spill []eventRec
}

// wheel schedules and fires events in time order. Events with equal times
// fire in insertion order so runs are deterministic (overflow events that
// re-enter the horizon fire after same-cycle events already in their
// bucket — irrelevant within the horizon, which covers every default
// configuration).
type wheel struct {
	handler  func(eventRec) // invoked for each fired event
	base     uint64         // next unfired cycle
	inWheel  int            // events currently stored in buckets
	buckets  [wheelSize]bucket
	overflow []eventRec // events at or beyond base+wheelSize (rare)
}

// reset empties the wheel and rewinds its clock to cycle 0, keeping the
// bucket spill and overflow storage for reuse. A drained wheel holds no
// events, so only the clock moves.
func (w *wheel) reset() {
	if w.inWheel > 0 {
		for i := range w.buckets {
			w.buckets[i].n = 0
			w.buckets[i].spill = w.buckets[i].spill[:0]
		}
	}
	w.base, w.inWheel, w.overflow = 0, 0, w.overflow[:0]
}

// at schedules r to fire at the given cycle.
func (w *wheel) at(cycle uint64, r eventRec) {
	if cycle < w.base {
		cycle = w.base // never schedule into the already-fired past
	}
	r.time = cycle
	if cycle >= w.base+wheelSize {
		w.overflow = append(w.overflow, r)
		return
	}
	b := &w.buckets[cycle&wheelMask]
	if int(b.n) < bucketInline {
		b.evs[b.n] = r
		b.n++
	} else {
		b.spill = append(b.spill, r)
	}
	w.inWheel++
}

// fireUpTo runs every event with time ≤ cycle, in order.
func (w *wheel) fireUpTo(cycle uint64) {
	for w.inWheel+len(w.overflow) > 0 {
		if w.inWheel == 0 {
			// Every pending event lies beyond the horizon: jump the
			// clock to the earliest one and pull what now fits back in.
			m := w.overflowMin()
			if m > cycle {
				return
			}
			if m > w.base {
				w.base = m
			}
			w.migrate()
			continue
		}
		if w.base > cycle {
			return // remaining events are in the future
		}
		b := &w.buckets[w.base&wheelMask]
		if b.n > 0 {
			for i := 0; i < int(b.n); i++ {
				w.inWheel--
				w.handler(b.evs[i])
			}
			for i := 0; i < len(b.spill); i++ {
				w.inWheel--
				w.handler(b.spill[i])
			}
			b.n = 0
			b.spill = b.spill[:0]
		}
		w.base++
		if len(w.overflow) > 0 {
			w.migrate() // the horizon advanced; pull in what fits
		}
	}
	if w.base <= cycle {
		w.base = cycle + 1
	}
}

// migrate moves overflow events that now fit the horizon into buckets.
func (w *wheel) migrate() {
	kept := w.overflow[:0]
	for _, r := range w.overflow {
		if r.time < w.base+wheelSize {
			b := &w.buckets[r.time&wheelMask]
			if int(b.n) < bucketInline {
				b.evs[b.n] = r
				b.n++
			} else {
				b.spill = append(b.spill, r)
			}
			w.inWheel++
		} else {
			kept = append(kept, r)
		}
	}
	w.overflow = kept
}

// overflowMin returns the earliest overflow event time.
func (w *wheel) overflowMin() uint64 {
	m := ^uint64(0)
	for _, r := range w.overflow {
		if r.time < m {
			m = r.time
		}
	}
	return m
}

// drain runs all remaining events and returns the time of the last one.
func (w *wheel) drain() uint64 {
	var last uint64
	for {
		t := w.nextTime()
		if t == ^uint64(0) {
			return last
		}
		w.fireUpTo(t)
		last = t
	}
}

// nextTime returns the time of the earliest pending event, or ^uint64(0)
// if none.
func (w *wheel) nextTime() uint64 {
	if w.inWheel > 0 {
		for t := w.base; ; t++ {
			if w.buckets[t&wheelMask].n > 0 {
				return t
			}
		}
	}
	if len(w.overflow) > 0 {
		return w.overflowMin()
	}
	return ^uint64(0)
}

package trace

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Bank is an immutable set of workload recordings: every stride-th trace
// of the 531-trace Table 1 workload, synthesized exactly once and then
// shared by every sweep. Experiments that replay the same workload
// through many processor configurations (Fig 6 runs it twice, Fig 8
// three times, Table 3 once per scheme) draw fresh Cursors from the bank
// instead of re-synthesizing the streams. A bank's recordings may be
// Prefix views of longer recordings of the same traces.
type Bank struct {
	Length int // uops per trace
	Stride int // workload subsampling stride the bank was built with

	recs []*Recording
}

// NewBank records every stride-th trace of the workload at the given
// replay length, preserving the suite mix exactly like SampleTraces.
func NewBank(length, stride int) *Bank { return NewBankFrom(length, stride, Record) }

// NewBankFrom builds the bank NewBank(length, stride) would record, taking
// each trace from record, which must return a recording of trace
// (id, idx) at least length uops long; the bank keeps its length-uop
// Prefix. Calls fan out over the CPUs: each trace is an independent
// deterministic stream, so the bank's contents do not depend on the
// order, and record must be safe for concurrent use.
func NewBankFrom(length, stride int, record func(id SuiteID, idx, length int) *Recording) *Bank {
	if stride <= 0 {
		panic("trace: stride must be positive")
	}
	type slot struct {
		id  SuiteID
		idx int
	}
	var slots []slot
	k := 0
	for _, s := range suites {
		for i := 0; i < s.Count; i++ {
			if k%stride == 0 {
				slots = append(slots, slot{id: s.ID, idx: i})
			}
			k++
		}
	}
	b := &Bank{Length: length, Stride: stride, recs: make([]*Recording, len(slots))}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(slots) {
		workers = len(slots)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(slots) {
					return
				}
				b.recs[i] = record(slots[i].id, slots[i].idx, length).Prefix(length)
			}
		}()
	}
	wg.Wait()
	return b
}

// Sources returns a fresh replay cursor per recording, in workload
// order.
func (b *Bank) Sources() []Source {
	out := make([]Source, len(b.recs))
	for i, r := range b.recs {
		out[i] = r.Cursor()
	}
	return out
}

// BankBytes returns the total packed payload of the recordings
// NewBank(length, stride) would make, without recording anything, so a
// caller can refuse a bank it cannot hold. stride must be positive;
// results past the int range saturate at math.MaxInt.
func BankBytes(length, stride int) int {
	perUop := (TotalTraces() + stride - 1) / stride * recordedUopBytes
	if length > math.MaxInt/perUop {
		return math.MaxInt
	}
	return length * perUop
}

package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	var g Gauge
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		v  *HistogramVec
		tc *Trace
		tr *Tracer
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram snapshot count = %d", s.Count)
	}
	if v.With("x") != nil {
		t.Fatal("nil vec With should return nil")
	}
	tc.Phase("x")
	tc.Finish()
	tr.Record("comp", "op", time.Now(), time.Millisecond, "k", "v")
	if tr.Recent("comp", 0) != nil || tr.Components() != nil {
		t.Fatal("nil tracer should hold nothing")
	}
	if s := tc.Snapshot("id", "comp"); s.ID != "" || len(s.Spans) != 0 {
		t.Fatalf("nil trace snapshot = %+v, want empty", s)
	}
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil values should be zero")
	}
}

func TestHistogramZeroObservations(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty histogram count=%d sum=%v", s.Count, s.Sum)
	}
	if len(s.Counts) != 4 {
		t.Fatalf("want 3 bounds + overflow, got %d slots", len(s.Counts))
	}
	for i, c := range s.Counts {
		if c != 0 {
			t.Fatalf("bucket %d = %d, want 0", i, c)
		}
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// Inclusive upper bounds: 1 lands in the le=1 bucket, 1.5 in le=2,
	// 4 in le=4, anything beyond the last bound in +Inf.
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 4.0001, 1e9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 2} // le=1, le=2, le=4, +Inf
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	wantSum := 0.5 + 1 + 1.5 + 2 + 4 + 4.0001 + 1e9
	if math.Abs(s.Sum-wantSum) > 1e-9*wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramOverflowOnly(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(100)
	h.Observe(1e18)
	s := h.Snapshot()
	if s.Counts[0] != 0 || s.Counts[1] != 2 {
		t.Fatalf("counts = %v, want [0 2]", s.Counts)
	}
}

// TestHistogramConcurrent exercises observe-vs-snapshot under the race
// detector: the atomics must never tear, and the final snapshot must
// account for every observation.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-6, 2, 20))
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				var total uint64
				for _, c := range s.Counts {
					total += c
				}
				if total != s.Count {
					panic("snapshot internally inconsistent")
				}
			}
		}
	}()
	var og sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		og.Add(1)
		go func(g int) {
			defer og.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g+1) * 1e-5)
			}
		}(g)
	}
	og.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	wantSum := 0.0
	for g := 0; g < goroutines; g++ {
		wantSum += float64(g+1) * 1e-5 * perG
	}
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("b[%d] = %v, want %v", i, b[i], want[i])
		}
	}
	if ExpBuckets(0, 2, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Fatal("degenerate ExpBuckets should return nil")
	}
}

func TestHistogramVecCardinalityBound(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("penelope_test_seconds", "t", "experiment", []float64{1})
	for i := 0; i < maxLabelValues; i++ {
		v.With(string(rune('a'+i%26)) + string(rune('a'+i/26))).Observe(1)
	}
	v.With("one-too-many").Observe(1)
	v.With("another").Observe(1)
	values, snaps := v.snapshot()
	if len(values) != maxLabelValues+1 {
		t.Fatalf("label values = %d, want %d", len(values), maxLabelValues+1)
	}
	var other *HistogramSnapshot
	for i, lv := range values {
		if lv == "~other" {
			other = &snaps[i]
		}
	}
	if other == nil || other.Count != 2 {
		t.Fatalf("overflow cell missing or wrong: %+v", other)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("penelope_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	r.Gauge("penelope_x_total", "x again")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name should panic")
		}
	}()
	r.Counter("0bad-name", "x")
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "penelope_jobs_total", "A:b_9"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "9a", "a-b", "a b", "é"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}

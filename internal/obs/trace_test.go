package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// checkContiguous asserts the snapshot's spans are monotonic and
// gap-free: each span starts exactly where the previous one ended.
func checkContiguous(t *testing.T, s TraceSnapshot) {
	t.Helper()
	at := int64(0)
	for i, sp := range s.Spans {
		if sp.StartNS != at {
			t.Fatalf("span %d (%s) starts at %d, want %d (gap or overlap)", i, sp.Name, sp.StartNS, at)
		}
		if sp.DurationNS < 0 {
			t.Fatalf("span %d (%s) has negative duration %d", i, sp.Name, sp.DurationNS)
		}
		at = sp.StartNS + sp.DurationNS
	}
	if s.Done && at != s.DurationNS {
		t.Fatalf("spans end at %d, trace duration %d", at, s.DurationNS)
	}
}

func TestTracePhases(t *testing.T) {
	tc := StartTrace("admit")
	tc.Phase("queue-wait")
	time.Sleep(time.Millisecond)
	tc.Phase("run")
	tc.Phase("store-write")
	tc.Phase("done")
	tc.Finish()

	s := tc.Snapshot("job-1", "job")
	if s.ID != "job-1" || s.Component != "job" {
		t.Fatalf("trace identity = %q/%q, want job-1/job", s.ID, s.Component)
	}
	if !s.Done {
		t.Fatal("trace should be done")
	}
	names := make([]string, len(s.Spans))
	for i, sp := range s.Spans {
		names[i] = sp.Name
	}
	want := []string{"admit", "queue-wait", "run", "store-write", "done"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("spans = %v, want %v", names, want)
	}
	checkContiguous(t, s)
	// queue-wait really slept.
	if s.Spans[1].DurationNS < int64(time.Millisecond/2) {
		t.Fatalf("queue-wait span too short: %d", s.Spans[1].DurationNS)
	}
	// Marks read back as elapsed times: a later phase began less long
	// ago by the offset between the two (read a moment apart).
	run := tc.Since("run")
	admit := tc.Since("admit")
	if off := time.Duration(s.Spans[2].StartNS); admit-run < off || admit-run > off+time.Second {
		t.Fatalf("Since(admit) %v - Since(run) %v, want about run's offset %v", admit, run, off)
	}
	if admit < time.Duration(s.DurationNS) {
		t.Fatalf("Since(admit) %v is shorter than the finished trace %dns", admit, s.DurationNS)
	}
	if tc.Since("nope") != 0 {
		t.Fatal("Since of a phase the trace never entered is not 0")
	}
}

// TestTraceFinishExactSize checks that a finished trace holds its spans
// in an exact-size slice, and that Bytes reports what it holds.
func TestTraceFinishExactSize(t *testing.T) {
	for n := 1; n <= 6; n++ {
		tc := StartTrace("admit")
		for i := 1; i < n; i++ {
			tc.Phase(fmt.Sprint("p", i))
		}
		tc.Finish()
		if len(tc.spans) != n || cap(tc.spans) != n {
			t.Fatalf("%d spans held in len %d cap %d", n, len(tc.spans), cap(tc.spans))
		}
		if got, want := tc.Bytes(), int64(n)*int64(unsafe.Sizeof(span{})); got != want {
			t.Fatalf("%d spans: Bytes = %d, want %d", n, got, want)
		}
	}
}

func TestTraceFinishIdempotent(t *testing.T) {
	tc := StartTrace("admit")
	tc.Finish()
	end1 := tc.Snapshot("job-2", "job")
	tc.Phase("late") // ignored after finish
	tc.Finish()
	end2 := tc.Snapshot("job-2", "job")
	if len(end2.Spans) != len(end1.Spans) || end2.DurationNS != end1.DurationNS {
		t.Fatalf("finish not idempotent: %+v vs %+v", end1, end2)
	}
}

func TestTraceUnfinishedSnapshot(t *testing.T) {
	tc := StartTrace("admit")
	tc.Phase("run")
	s := tc.Snapshot("job-3", "job")
	if s.ID != "job-3" || s.Done {
		t.Fatalf("want live trace job-3, got id=%q done=%v", s.ID, s.Done)
	}
	checkContiguous(t, s)
	if len(s.Spans) != 2 || s.Spans[1].Name != "run" {
		t.Fatalf("spans = %+v", s.Spans)
	}
}

func TestTracerRecordAndRecent(t *testing.T) {
	tr := NewTracer()
	base := time.Now()
	for i := 0; i < 5; i++ {
		tr.Record("store", "put", base.Add(time.Duration(i)*time.Millisecond),
			time.Millisecond, "n", fmt.Sprint(i), "parity", fmt.Sprint(i%2))
	}
	got := tr.Recent("store", 3)
	if len(got) != 3 {
		t.Fatalf("recent = %d, want 3", len(got))
	}
	// Newest first.
	if got[0].Spans[0].Attrs["n"] != "4" || got[2].Spans[0].Attrs["n"] != "2" {
		t.Fatalf("order wrong: %+v", got)
	}
	if got[0].ID != "store-5" || got[0].Spans[0].Attrs["parity"] != "0" || len(got[0].Spans[0].Attrs) != 2 {
		t.Fatalf("newest trace = %+v, want store-5 with n and parity", got[0])
	}
	for _, s := range got {
		if !s.Done || len(s.Spans) != 1 || s.Spans[0].Name != "put" {
			t.Fatalf("bad one-shot trace: %+v", s)
		}
		checkContiguous(t, s)
	}
	comps := tr.Components()
	if len(comps) != 1 || comps[0] != "store" {
		t.Fatalf("components = %v", comps)
	}
}

func TestTracerRingsBounded(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < TraceRingCap*2; i++ {
		tr.Record("fleet", "tick", time.Now(), time.Microsecond)
	}
	if got := len(tr.Recent("fleet", 0)); got != TraceRingCap {
		t.Fatalf("ring size = %d, want %d", got, TraceRingCap)
	}
	for i := 0; i < TraceRingCap+10; i++ {
		tr.Record("store", "put", time.Now(), time.Microsecond)
	}
	puts := tr.Recent("store", 0)
	if len(puts) != TraceRingCap {
		t.Fatalf("store ring size = %d, want %d", len(puts), TraceRingCap)
	}
	// Trace IDs number every Record across components.
	first := 2*TraceRingCap + 11
	if newest, oldest := puts[0].ID, puts[len(puts)-1].ID; newest != fmt.Sprintf("store-%d", first+TraceRingCap-1) || oldest != fmt.Sprintf("store-%d", first) {
		t.Fatalf("store ring holds %s..%s, want store-%d..store-%d", oldest, newest, first, first+TraceRingCap-1)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tc := StartTrace("admit")
				tc.Phase("run")
				tr.Record("store", "put", time.Now(), time.Microsecond, "g", fmt.Sprint(g))
				tc.Finish()
				checkContiguous(t, tc.Snapshot("job", "job"))
				for _, s := range tr.Recent("store", 10) {
					checkContiguous(t, s)
				}
			}
		}(g)
	}
	wg.Wait()
}

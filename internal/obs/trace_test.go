package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
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
	tr := NewTracer()
	tc := tr.Begin("job-1", "job", "admit")
	tc.Attr("experiment", "fig4")
	tc.Phase("queue-wait")
	time.Sleep(time.Millisecond)
	tc.Phase("run")
	tc.Phase("store-write")
	tc.Phase("done")
	tc.Finish()

	s := tc.Snapshot()
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
	if s.Spans[0].Attrs["experiment"] != "fig4" {
		t.Fatalf("attr lost: %+v", s.Spans[0].Attrs)
	}
	checkContiguous(t, s)
	// queue-wait really slept.
	if s.Spans[1].DurationNS < int64(time.Millisecond/2) {
		t.Fatalf("queue-wait span too short: %d", s.Spans[1].DurationNS)
	}
}

func TestTraceFinishIdempotent(t *testing.T) {
	tr := NewTracer()
	tc := tr.Begin("job-2", "job", "admit")
	tc.Finish()
	end1 := tc.Snapshot()
	tc.Phase("late") // ignored after finish
	tc.Finish()
	end2 := tc.Snapshot()
	if len(end2.Spans) != len(end1.Spans) || end2.DurationNS != end1.DurationNS {
		t.Fatalf("finish not idempotent: %+v vs %+v", end1, end2)
	}
}

func TestTraceUnfinishedSnapshot(t *testing.T) {
	tr := NewTracer()
	tc := tr.Begin("job-3", "job", "admit")
	tc.Phase("run")
	s := tc.Snapshot()
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
			time.Millisecond, map[string]string{"n": fmt.Sprint(i)})
	}
	got := tr.Recent("store", 3)
	if len(got) != 3 {
		t.Fatalf("recent = %d, want 3", len(got))
	}
	// Newest first.
	if got[0].Spans[0].Attrs["n"] != "4" || got[2].Spans[0].Attrs["n"] != "2" {
		t.Fatalf("order wrong: %+v", got)
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
	for i := 0; i < defaultRingCap*2; i++ {
		tr.Record("fleet", "tick", time.Now(), time.Microsecond, nil)
	}
	if got := len(tr.Recent("fleet", 0)); got != defaultRingCap {
		t.Fatalf("ring size = %d, want %d", got, defaultRingCap)
	}
	for i := 0; i < defaultRingCap+10; i++ {
		tr.Begin(fmt.Sprintf("job-%d", i), "job", "admit").Finish()
	}
	jobs := tr.Recent("job", 0)
	if len(jobs) != defaultRingCap {
		t.Fatalf("job ring size = %d, want %d", len(jobs), defaultRingCap)
	}
	if newest, oldest := jobs[0].ID, jobs[len(jobs)-1].ID; newest != fmt.Sprintf("job-%d", defaultRingCap+9) || oldest != "job-10" {
		t.Fatalf("job ring holds %s..%s, want job-10..job-%d", oldest, newest, defaultRingCap+9)
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
				id := fmt.Sprintf("job-%d-%d", g, i)
				tc := tr.Begin(id, "job", "admit")
				tc.Phase("run")
				tr.Record("store", "put", time.Now(), time.Microsecond, nil)
				tc.Finish()
				if s := tc.Snapshot(); s.ID == id {
					checkContiguous(t, s)
				} else {
					t.Errorf("trace id = %q, want %q", s.ID, id)
				}
				tr.Recent("job", 10)
			}
		}(g)
	}
	wg.Wait()
}

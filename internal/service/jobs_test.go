package service

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"penelope/internal/experiments"
	"penelope/internal/obs"
)

// spanView is the part of a trace span the job-trace contract pins:
// its name and its attributes.
type spanView struct {
	Name  string
	Attrs map[string]string
}

func viewSpans(s obs.TraceSnapshot) []spanView {
	out := make([]spanView, len(s.Spans))
	for i, sp := range s.Spans {
		out[i] = spanView{Name: sp.Name, Attrs: sp.Attrs}
	}
	return out
}

// ringTrace returns the job ring's trace with id from
// /v1/debug/traces?component=job.
func ringTrace(t *testing.T, base, id string) obs.TraceSnapshot {
	t.Helper()
	var ring struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if code := getJSON(t, base+"/v1/debug/traces?component=job&n=256", &ring); code != http.StatusOK {
		t.Fatalf("GET job ring: status %d", code)
	}
	for _, tr := range ring.Traces {
		if tr.ID == id {
			return tr
		}
	}
	t.Fatalf("job %s missing from the job ring", id)
	return obs.TraceSnapshot{}
}

// checkJobTrace checks that job id's trace, read from
// /v1/jobs/{id}/trace and from the job ring, has exactly the spans and
// attributes want, is finished and gap-free.
func checkJobTrace(t *testing.T, base, id string, want []spanView) {
	t.Helper()
	var own obs.TraceSnapshot
	if code := getJSON(t, base+"/v1/jobs/"+id+"/trace", &own); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s/trace: status %d", id, code)
	}
	ring := ringTrace(t, base, id)
	for _, got := range []struct {
		from string
		snap obs.TraceSnapshot
	}{{"/v1/jobs/{id}/trace", own}, {"job ring", ring}} {
		s := got.snap
		if s.ID != id || s.Component != "job" || !s.Done {
			t.Errorf("%s: id %q component %q done %v, want %q job done", got.from, s.ID, s.Component, s.Done, id)
		}
		var at int64
		for _, sp := range s.Spans {
			if sp.StartNS != at || sp.DurationNS < 0 {
				t.Errorf("%s: span %s at %d+%d, want a start at %d", got.from, sp.Name, sp.StartNS, sp.DurationNS, at)
			}
			at = sp.StartNS + sp.DurationNS
		}
		if at != s.DurationNS {
			t.Errorf("%s: spans end at %d, trace duration %d", got.from, at, s.DurationNS)
		}
		if v := viewSpans(s); !reflect.DeepEqual(v, want) {
			t.Errorf("%s: spans\n got %+v\nwant %+v", got.from, v, want)
		}
	}
}

// TestJobTraceContract pins what a job's trace reports for every way a
// job can finish: a resident cache hit, a store read-through, a leader
// that writes the store, a follower of an in-flight leader, a failed
// leader and a leader refused by a full queue. Both views of a trace,
// the job's own and the job ring's, carry the same span names and the
// same attributes: experiment, client, key (and source, for a result
// found complete) on admit; state, error and cache_hit on done.
func TestJobTraceContract(t *testing.T) {
	release := make(chan struct{})
	runner := func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		switch o.TraceLength {
		case 3000:
			<-release
		case 4000:
			return nil, errors.New("driver failed")
		}
		return fakeResult{Name: experiment, N: o.TraceLength}, nil
	}
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DataDir: dir, runner: runner})
	admit := func(o experiments.Options, source string) spanView {
		a := map[string]string{"experiment": "fig6", "client": "c", "key": ResultKey("fig6", o)}
		if source != "" {
			a["source"] = source
		}
		return spanView{"admit", a}
	}
	done := func(state JobState, errMsg string, hit bool) spanView {
		a := map[string]string{"state": string(state)}
		if errMsg != "" {
			a["error"] = errMsg
		}
		if hit {
			a["cache_hit"] = "true"
		}
		return spanView{"done", a}
	}
	submit := func(srv *Server, length int) *Job {
		job, err := srv.submit("c", "fig6", experiments.Options{TraceLength: length}, "")
		if err != nil && !errors.Is(err, errQueueFull) {
			t.Fatal(err)
		}
		return job
	}

	leader := submit(s, 1000)
	pollJob(t, ts.URL, leader.ID)
	checkJobTrace(t, ts.URL, leader.ID, []spanView{admit(leader.Options, ""),
		{Name: "queue-wait"}, {Name: "run"}, {Name: "store-write"}, done(StateDone, "", false)})

	hit := submit(s, 1000)
	checkJobTrace(t, ts.URL, hit.ID, []spanView{admit(hit.Options, "cache"), done(StateDone, "", true)})

	failed := submit(s, 4000)
	pollJob(t, ts.URL, failed.ID)
	checkJobTrace(t, ts.URL, failed.ID, []spanView{admit(failed.Options, ""),
		{Name: "queue-wait"}, {Name: "run"}, done(StateFailed, "driver failed", false)})

	// One worker held by the 3000 leader and a queue of one: the 5000
	// leader fills the queue and the 6000 leader is refused.
	held := submit(s, 3000)
	waitFor(t, func() bool { return s.snapshot(held).State == StateRunning })
	follower := submit(s, 3000)
	queued := submit(s, 5000)
	refused := submit(s, 6000)
	checkJobTrace(t, ts.URL, refused.ID, []spanView{admit(refused.Options, ""),
		{Name: "queue-wait"}, done(StateFailed, errQueueFull.Error(), false)})
	close(release)
	pollJob(t, ts.URL, follower.ID)
	pollJob(t, ts.URL, queued.ID)
	checkJobTrace(t, ts.URL, follower.ID, []spanView{admit(follower.Options, ""),
		{Name: "follow"}, done(StateDone, "", true)})

	// A second server over the same store has an empty memo: the key
	// reads through the store.
	ts.Close()
	s.Close()
	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir, runner: runner})
	read := submit(s2, 1000)
	checkJobTrace(t, ts2.URL, read.ID, []spanView{admit(read.Options, "store"), done(StateDone, "", true)})
}

// retainedJobBytes is the most heap a retained finished job may hold.
const retainedJobBytes = 450

// heapAfterGC returns the live heap once garbage is collected.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// retainedPerJob fills s's finished-job FIFO through fill, which must
// leave n jobs finished, and returns the heap each of them retains: the
// live heap with the jobs held, less the live heap once the server
// drops them, per job. What the jobs share with the rest of the server
// (result memo entries, store index) stays and is not counted.
func retainedPerJob(t *testing.T, s *Server, n int, fill func()) float64 {
	t.Helper()
	fill()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 0 && s.running == 0 && s.terminal.Len() >= n
	})
	held := heapAfterGC()
	s.mu.Lock()
	for i := 0; i < s.terminal.Len(); i++ {
		delete(s.jobs, s.terminal.At(i).ID)
	}
	s.terminal = obs.NewRing[*Job](retainJobs)
	s.traced = obs.NewRing[*Job](obs.TraceRingCap)
	s.mu.Unlock()
	dropped := heapAfterGC()
	return (float64(held) - float64(dropped)) / float64(n)
}

// TestRetainedJobBytes bounds the heap a finished job holds while the
// server keeps it pollable: a full FIFO of cache hits, and leaders on a
// store-backed server, each at most retainedJobBytes per job. Client
// and experiment strings are fresh per job, as an HTTP request's are.
func TestRetainedJobBytes(t *testing.T) {
	runner := func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		return fakeResult{Name: experiment, N: o.TraceLength}, nil
	}
	submit := func(s *Server, length int) {
		if _, err := s.submit(strings.Clone("client-1"), strings.Clone("fig6"), experiments.Options{TraceLength: length}, ""); err != nil {
			t.Fatal(err)
		}
	}
	newServer := func(cfg Config) *Server {
		cfg.runner, cfg.HistoryInterval = runner, -1
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}

	hits := newServer(Config{Workers: 1})
	submit(hits, 1000)
	perHit := retainedPerJob(t, hits, retainJobs, func() {
		for i := 0; i < retainJobs; i++ {
			submit(hits, 1000)
		}
	})
	const leaders = 1500
	stored := newServer(Config{Workers: 2, QueueDepth: leaders, DataDir: t.TempDir()})
	perLeader := retainedPerJob(t, stored, leaders, func() {
		for i := 0; i < leaders; i++ {
			submit(stored, 1000+i)
		}
	})
	t.Logf("retained per job: cache hit %.0f B, leader with a store %.0f B", perHit, perLeader)
	if perHit > retainedJobBytes || perLeader > retainedJobBytes {
		t.Errorf("retained per job: cache hit %.0f B, leader %.0f B; want at most %d B each",
			perHit, perLeader, retainedJobBytes)
	}
}

// TestJobsHolderCharge checks penelope_resident_bytes{holder="jobs"}:
// the finished-job FIFO's summed charges, rising by a job's charge as
// it finishes and falling by the evicted job's once the FIFO is full.
func TestJobsHolderCharge(t *testing.T) {
	runner := func(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
		if o.TraceLength == 4000 {
			return nil, errors.New("driver failed")
		}
		return fakeResult{Name: experiment, N: o.TraceLength}, nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, runner: runner})
	const prefix = `penelope_resident_bytes{holder="jobs"} `
	gauge := func() int64 {
		t.Helper()
		_, text, _ := get(t, ts.URL+"/metrics", nil)
		i := strings.Index(string(text), "\n"+prefix)
		if i < 0 {
			t.Fatalf("exposition lacks %s", prefix)
		}
		v, _, _ := strings.Cut(string(text[i+1+len(prefix):]), "\n")
		got, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatal(err)
		}
		return int64(got)
	}
	finished := func(length int) (*Job, int64) {
		t.Helper()
		job, err := s.submit("c", "fig6", experiments.Options{TraceLength: length}, "")
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			st := s.snapshot(job).State
			return st == StateDone || st == StateFailed
		})
		s.mu.Lock()
		defer s.mu.Unlock()
		return job, job.charge()
	}

	if got := gauge(); got != 0 {
		t.Fatalf("no job finished: %s%d, want 0", prefix, got)
	}
	failed, failedCharge := finished(4000)
	if failedCharge <= int64(unsafe.Sizeof(*failed))+int64(len(failed.Error)) {
		t.Fatalf("failed job charges %d B, less than the job and its error", failedCharge)
	}
	if got := gauge(); got != failedCharge {
		t.Fatalf("one failed job: %s%d, want its charge %d", prefix, got, failedCharge)
	}
	_, leaderCharge := finished(1000)
	want := failedCharge + leaderCharge
	if got := gauge(); got != want {
		t.Fatalf("two jobs: %s%d, want %d", prefix, got, want)
	}
	for i := 2; i < retainJobs; i++ {
		_, c := finished(1000)
		want += c
	}
	if got := gauge(); got != want {
		t.Fatalf("full FIFO: %s%d, want %d", prefix, got, want)
	}
	_, c := finished(1000)
	want += c - failedCharge
	if got := gauge(); got != want {
		t.Fatalf("after evicting the oldest job: %s%d, want %d", prefix, got, want)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+failed.ID, nil); code != http.StatusNotFound {
		t.Fatalf("oldest job not evicted: status %d", code)
	}
}

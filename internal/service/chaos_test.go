package service

// The chaos suite runs the server against a seeded fault-injecting
// runner and through simulated crash/restart cycles. It is an in-package
// suite: it injects that runner and a fleet builder through the Config
// test seams, and reads the store and fleet status from the server
// itself, while every request still goes through the HTTP API. It is
// written to be deterministic: faults come from a seeded schedule, and
// interruptions are driven by counted context polls, not wall-clock
// timing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"penelope/internal/circuit"
	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/lifetime"
	"penelope/internal/mix"
	"penelope/internal/store"
)

type chaosResult struct {
	Name string
	N    int
}

func (r chaosResult) ID() string { return r.Name }
func (r chaosResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", r.Name, r.N)
}

func baseRunner(_ context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
	return chaosResult{Name: experiment, N: o.TraceLength}, nil
}

// faults wraps baseRunner with a seeded fault schedule: one SplitMix64
// draw per invocation decides whether it fails (errRate), panics
// (panicRate) or runs, so a seed replays the same schedule every time.
type faults struct {
	seed               uint64
	errRate, panicRate float64
	runs, errs, panics atomic.Uint64
}

func (f *faults) runner(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
	n := f.runs.Add(1)
	switch u := mix.Float64(mix.SplitMix64(f.seed + n)); {
	case u < f.errRate:
		f.errs.Add(1)
		return nil, fmt.Errorf("injected fault on run %d", n)
	case u < f.errRate+f.panicRate:
		f.panics.Add(1)
		panic(fmt.Sprintf("injected panic on run %d", n))
	}
	return baseRunner(ctx, experiment, o)
}

func pollTerminal(t *testing.T, base, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		err = jsonDecode(resp, &job)
		if err != nil {
			t.Fatal(err)
		}
		if job.State == StateDone || job.State == StateFailed {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestChaosFaultStorm floods the server with jobs while the runner
// fires errors and panics from a fixed seed, and requires every job to
// reach a terminal state with the books balanced: the server absorbs
// the storm instead of deadlocking, leaking jobs, or crashing.
func TestChaosFaultStorm(t *testing.T) {
	inj := &faults{seed: 42, errRate: 0.25, panicRate: 0.10}
	srv, err := New(Config{
		Workers:    4,
		QueueDepth: 128,
		runner:     inj.runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	const n = 40
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"experiment":"fig6","client":"storm-%d","options":{"trace_length":%d}}`, i%3, 1000+i)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		if err := jsonDecode(resp, &job); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[i] = job.ID
	}

	done, failed := 0, 0
	for _, id := range ids {
		switch job := pollTerminal(t, ts.URL, id); job.State {
		case StateDone:
			done++
		case StateFailed:
			failed++
			if job.Error == "" {
				t.Errorf("failed job %s carries no error", id)
			}
		}
	}
	if done+failed != n {
		t.Fatalf("%d done + %d failed != %d submitted", done, failed, n)
	}
	// Every job is its own leader and runs once, so each injected fault
	// fails exactly one job.
	if done == 0 || inj.errs.Load() == 0 || inj.panics.Load() == 0 {
		t.Fatalf("storm injected %d errors and %d panics over %d done jobs; want all three nonzero",
			inj.errs.Load(), inj.panics.Load(), done)
	}
	if uint64(failed) != inj.errs.Load()+inj.panics.Load() {
		t.Errorf("%d failed jobs != %d injected errors + %d injected panics", failed, inj.errs.Load(), inj.panics.Load())
	}

	// The books balance: recovered panics equal injected panics, and no
	// job is left active.
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := jsonDecode(resp, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs.PanicsRecovered != inj.panics.Load() {
		t.Errorf("panics recovered %d != injected %d", m.Jobs.PanicsRecovered, inj.panics.Load())
	}
	if m.Jobs.Done != uint64(done) || m.Jobs.Failed != uint64(failed) {
		t.Errorf("metrics %d/%d disagree with observed %d/%d", m.Jobs.Done, m.Jobs.Failed, done, failed)
	}
	if m.Jobs.Queued != 0 || m.Jobs.Running != 0 {
		t.Errorf("leaked active jobs: %d queued, %d running after the storm", m.Jobs.Queued, m.Jobs.Running)
	}
}

// TestChaosKillRestartServesFromDisk simulates kill -9 (the first
// server is abandoned, never Closed) while its runner injects faults.
// The restarted server must answer every job the first one finished
// byte-for-byte from the persistent store without re-simulating, and
// must re-run exactly the jobs that failed, which were never stored.
func TestChaosKillRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	inj := &faults{seed: 7, errRate: 0.3}
	s1, err := New(Config{Workers: 2, DataDir: dir, runner: inj.runner})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	const n = 8
	submit := func(base string, i int) Job {
		body := fmt.Sprintf(`{"experiment":"fig6","options":{"trace_length":%d}}`, 5000+i)
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		if err := jsonDecode(resp, &job); err != nil {
			t.Fatal(err)
		}
		return job
	}
	payloads := make(map[string][]byte, n)
	failed := make(map[int]bool)
	for i := 0; i < n; i++ {
		job := submit(ts1.URL, i)
		switch done := pollTerminal(t, ts1.URL, job.ID); {
		case done.State == StateDone:
			payloads[job.ResultKey] = fetch(t, ts1.URL+"/v1/results/"+job.ResultKey)
		case s1.store.Has(job.ResultKey):
			t.Fatalf("failed job %d left a stored result", i)
		default:
			failed[5000+i] = true
		}
	}
	if len(failed) == 0 || len(payloads) == 0 {
		t.Fatalf("%d failed and %d done on the first server; the seed must produce both", len(failed), len(payloads))
	}
	ts1.Close() // abandon s1 without Close: kill -9

	var reruns atomic.Int64
	s2, err := New(Config{
		Workers: 2, DataDir: dir,
		runner: func(ctx context.Context, experiment string, o experiments.Options) (experiments.Result, error) {
			if !failed[o.TraceLength] {
				t.Errorf("restarted server re-simulated %s/%d", experiment, o.TraceLength)
			}
			reruns.Add(1)
			return baseRunner(ctx, experiment, o)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close()
	}()

	for i := 0; i < n; i++ {
		job := submit(ts2.URL, i)
		if failed[5000+i] {
			if done := pollTerminal(t, ts2.URL, job.ID); job.CacheHit || done.State != StateDone {
				t.Fatalf("restart did not re-run failed job %d: %+v", i, done)
			}
			continue
		}
		if job.State != StateDone || !job.CacheHit {
			t.Fatalf("restart did not serve job %d from disk: %+v", i, job)
		}
		if got := fetch(t, ts2.URL+"/v1/results/"+job.ResultKey); !bytes.Equal(got, payloads[job.ResultKey]) {
			t.Errorf("restart served different bytes for %s", job.ResultKey)
		}
	}
	if got := reruns.Load(); got != int64(len(failed)) {
		t.Errorf("restarted server ran %d jobs, want the %d that failed", got, len(failed))
	}
}

// pollCtx cancels after a fixed number of Err() polls — the
// deterministic way to interrupt a lifetime run at an exact epoch.
type pollCtx struct {
	context.Context
	polls, limit int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestChaosLifetimeResumeAcrossRestart is the end-to-end resume
// guarantee for every fleet experiment (lifetime and yield): a job
// killed mid-run leaves its job record; the next boot resubmits it
// automatically and recomputes it from epoch 0 through the registry
// runner; and the final payload is byte-identical to an uninterrupted
// experiments.Run.
func TestChaosLifetimeResumeAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real fleet lifetime engine")
	}
	dir := t.TempDir()
	o := experiments.Options{
		TraceLength: 2000, TraceStride: 120,
		Population: 900, Years: 3, EpochDays: 45,
		VariationSigma: 0.1, FleetSeed: 5,
	}
	var fleetExps []string
	canon := make(map[string]experiments.Options)
	keys := make(map[string]string)
	for _, spec := range experiments.Experiments() {
		if !spec.Fleet {
			continue
		}
		fleetExps = append(fleetExps, spec.ID)
		canon[spec.ID] = spec.CanonicalOptions(o)
		keys[spec.ID] = ResultKey(spec.ID, canon[spec.ID])
	}

	// Phase 1: the runner mimics a process dying mid-run — the engine
	// advances a handful of epochs under a counted context, and the job
	// fails as interrupted. Because it never completes, the resumable
	// job record stays on disk, exactly as kill -9 would leave things.
	s1, err := New(Config{
		Workers: 1, DataDir: dir,
		runner: func(_ context.Context, experiment string, opts experiments.Options) (experiments.Result, error) {
			limited := &pollCtx{Context: context.Background(), limit: 4}
			return experiments.LifetimeContext(limited, opts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	for _, exp := range fleetExps {
		optJSON, _ := json.Marshal(canon[exp])
		resp, err := http.Post(ts1.URL+"/v1/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"experiment":%q,"options":%s}`, exp, optJSON)))
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		if err := jsonDecode(resp, &job); err != nil {
			t.Fatal(err)
		}
		if job.ResultKey != keys[exp] {
			t.Fatalf("%s: submitted key %s != computed %s", exp, job.ResultKey, keys[exp])
		}
		if done := pollTerminal(t, ts1.URL, job.ID); done.State != StateFailed ||
			!strings.Contains(done.Error, "interrupted") {
			t.Fatalf("%s: phase 1 job = %+v, want interrupted failure", exp, done)
		}
	}
	if n := len(s1.store.Records(store.KindJob, nil)); n != len(fleetExps) {
		t.Fatalf("%d resumable job records left behind, want %d", n, len(fleetExps))
	}
	ts1.Close() // kill -9: no graceful Close

	// Phase 2: a fresh boot over the same data dir resumes the jobs with
	// the real registry runner (nil runner) and completes them.
	s2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close()
	}()
	for _, exp := range fleetExps {
		key := keys[exp]
		deadline := time.Now().Add(120 * time.Second)
		for !s2.store.Has(key) {
			if time.Now().After(deadline) {
				t.Fatalf("resumed %s job never completed", exp)
			}
			time.Sleep(20 * time.Millisecond)
		}
		got := fetch(t, ts2.URL+"/v1/results/"+key)

		// Reference: an uninterrupted in-process run under the same
		// canonical options.
		res, err := experiments.Run(exp, canon[exp])
		if err != nil {
			t.Fatal(err)
		}
		want, err := experiments.NewPayload(res, canon[exp]).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("recomputed %s payload not byte-identical to an uninterrupted run", exp)
		}
	}

	// The resume bookkeeping: counted, and the sidecars cleaned up.
	resp, err := http.Get(ts2.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := jsonDecode(resp, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs.Resumed != uint64(len(fleetExps)) {
		t.Errorf("resumed = %d, want %d", m.Jobs.Resumed, len(fleetExps))
	}
	if recs := s2.store.Records(store.KindJob, nil); len(recs) != 0 {
		t.Errorf("job record survived completion: %+v", recs)
	}
}

// TestChaosQueuedLifetimeSurvivesCrash pins the admission contract: a
// lifetime job's record is written when the job is admitted, not when a
// worker starts it. The one worker is held busy, a lifetime job queues
// behind it, and the server is dropped without Close (kill -9). The next
// boot resumes the queued job from its record to a payload
// byte-identical to an uninterrupted run.
func TestChaosQueuedLifetimeSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	s1, err := New(Config{
		Workers: 1, DataDir: dir,
		runner: func(context.Context, string, experiments.Options) (experiments.Result, error) {
			if calls.Add(1) == 1 {
				close(started)
			}
			<-release
			return nil, fmt.Errorf("first server is gone")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer close(release) // let the abandoned worker return once the test is done

	post := func(base, body string) Job {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		if err := jsonDecode(resp, &job); err != nil {
			t.Fatal(err)
		}
		return job
	}
	post(ts1.URL, `{"experiment":"fig4"}`)
	<-started

	o := experiments.Options{TraceLength: 900, TraceStride: 531, Population: 200, Years: 0.5, EpochDays: 30, FleetSeed: 11}
	spec, _ := experiments.Lookup("lifetime")
	canon := spec.CanonicalOptions(o)
	optJSON, _ := json.Marshal(canon)
	queued := post(ts1.URL, fmt.Sprintf(`{"experiment":"lifetime","options":%s}`, optJSON))
	if queued.State != StateQueued {
		t.Fatalf("lifetime job behind a busy worker is %s, want queued", queued.State)
	}
	if recs := s1.store.Records(store.KindJob, nil); len(recs) != 1 || recs[0].Name != queued.ResultKey {
		t.Fatalf("admission wrote job records %+v, want one for %s", recs, queued.ResultKey)
	}
	ts1.Close() // kill -9: no graceful Close, the queued job never ran
	if n := calls.Load(); n != 1 {
		t.Fatalf("first server ran %d jobs, want only the one holding the worker", n)
	}

	s2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close()
	}()
	deadline := time.Now().Add(60 * time.Second)
	for !s2.store.Has(queued.ResultKey) {
		if time.Now().After(deadline) {
			t.Fatal("queued lifetime job never resumed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := fetch(t, ts2.URL+"/v1/results/"+queued.ResultKey)
	res, err := experiments.Run("lifetime", canon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.NewPayload(res, canon).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed queued job's payload not byte-identical to an uninterrupted run")
	}
	resp, err := http.Get(ts2.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := jsonDecode(resp, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs.Resumed != 1 {
		t.Errorf("resumed = %d, want 1", m.Jobs.Resumed)
	}
}

// TestChaosGracefulCloseKeepsJobRecord drives the cooperative-shutdown
// path: Close cancels an in-flight lifetime run and returns without
// waiting for it to save anything. Either the run finished first
// (result stored) or its job record stays for the next boot to
// recompute.
func TestChaosGracefulCloseKeepsJobRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real fleet lifetime engine")
	}
	dir := t.TempDir()
	o := experiments.Options{
		TraceLength: 2000, TraceStride: 120,
		Population: 20000, Years: 7, EpochDays: 30,
		VariationSigma: 0.1, FleetSeed: 5,
	}
	s, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, _ := experiments.Lookup("lifetime")
	canon := spec.CanonicalOptions(o)
	key := ResultKey("lifetime", canon)
	optJSON, _ := json.Marshal(canon)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"experiment":"lifetime","options":%s}`, optJSON)))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := jsonDecode(resp, &job); err != nil {
		t.Fatal(err)
	}

	// Wait until a worker has the job, then pull the plug gracefully.
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonDecode(resp, &job); err != nil {
			t.Fatal(err)
		}
		if job.State == StateRunning {
			break
		}
		if job.State != StateQueued {
			t.Skipf("run ended (%s) before the shutdown raced it; nothing to drain", job.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	s.Close()
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("graceful close took %v", took)
	}
	if !s.store.Has(key) && len(s.store.Records(store.KindJob, nil)) != 1 {
		t.Error("interrupted run left neither a result nor a resumable job record")
	}
}

// fetch GETs a URL and returns the body, failing on non-200.
func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// chaosFleetConfig is the deterministic synthetic population the fleet
// chaos tests age: small, fast, with real process variation so resumed
// trajectories have something nontrivial to diverge on.
func chaosFleetConfig() lifetime.Config {
	p := lifetime.DefaultParams()
	return lifetime.Config{
		Structures: []string{"adder", "regfile"},
		// ~73 epochs: long enough that the SIGTERM below always lands
		// mid-run, short enough that the resumed run finishes in well
		// under a second of 1ms ticks.
		Phases:     []lifetime.Phase{{Name: "service", Years: 6.0, Duty: []float64{0.55, 0.35}}},
		Population: 512,
		EpochYears: 30.0 / 365.25,
		Seed:       11,
		Sigma:      0.08,
		Limit:      lifetime.DefaultLimit,
		Params:     p,
		Delay:      circuit.NewDelayModel(circuit.PathStats{Depth: 10, Narrow: 5}, p.MaxVTHShift, p.MaxGuardband),
	}
}

// TestChaosFleetSIGTERMMidTickResumes is the continuous-operations
// drain guarantee: Close (the SIGTERM path) lands while registered
// populations are mid-tick, the drain ends within its grace, and a
// restarted server resumes each one at the cursor in its record —
// finishing with a trajectory byte-identical to an uninterrupted
// reference run of the same engine config.
func TestChaosFleetSIGTERMMidTickResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := chaosFleetConfig()
	mk := func() (*Server, *httptest.Server) {
		s, err := New(Config{
			Workers: 2, DataDir: dir,
			FleetTick: time.Millisecond,
			fleetBuilder: func(fleetops.Registration) (lifetime.Config, error) {
				return cfg, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}

	s1, ts1 := mk()
	names := []string{"fleet-a", "fleet-b"}
	for _, name := range names {
		resp, err := http.Post(ts1.URL+"/v1/fleets", "application/json",
			strings.NewReader(fmt.Sprintf(`{"name":%q}`, name)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: status %d", name, resp.StatusCode)
		}
	}

	// Let every population tick a few epochs; with 1ms ticks the Close
	// below almost certainly lands mid-tick for at least one of them.
	preKill := make(map[string]int, len(names))
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := 0
		for _, name := range names {
			// Sticky: once a population has been seen active past epoch
			// 2 it stays counted, so one fleet racing ahead can't starve
			// the wait on the other.
			if _, ok := preKill[name]; ok {
				ready++
				continue
			}
			if st, ok := s1.sched.Get(name); ok && st.Epoch >= 2 && st.State == fleetops.StateActive {
				preKill[name] = st.Epoch
				ready++
			}
		}
		if ready == len(names) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("populations never reached epoch 2")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ts1.Close()
	start := time.Now()
	s1.Close() // SIGTERM: drain every population
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("drain took %v, want within the grace", took)
	}

	// Phase 2: a fresh boot over the same data dir resumes both
	// populations automatically (no re-registration) and runs them to
	// done.
	s2, ts2 := mk()
	defer func() {
		ts2.Close()
		s2.Close()
	}()
	// The engine rebuild and replay happen inside the first tick (under
	// the same retry protection as any tick), so wait for it: each population
	// must come back flagged resumed, continuing past its pre-kill epoch
	// rather than restarting from zero.
	for _, name := range names {
		if _, ok := s2.sched.Get(name); !ok {
			t.Fatalf("restart lost fleet %s", name)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, _ := s2.sched.Get(name)
			if st.Ticks >= 1 {
				if !st.Resumed {
					t.Fatalf("fleet %s ticked without resuming its checkpoint: %+v", name, st)
				}
				if st.Epoch <= preKill[name] {
					t.Fatalf("fleet %s resumed at epoch %d, not past pre-kill epoch %d", name, st.Epoch, preKill[name])
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleet %s never ticked after restart: %+v", name, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, name := range names {
		deadline := time.Now().Add(60 * time.Second)
		for {
			st, ok := s2.sched.Get(name)
			if ok && st.State == fleetops.StateDone {
				if !st.Resumed {
					t.Errorf("fleet %s finished without the resumed flag", name)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleet %s never finished after resume: %+v", name, st)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}

	// Byte-identical resume: the final epoch row of each resumed
	// population equals an uninterrupted reference run's.
	ref, err := lifetime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !ref.Done() {
		ref.Step(2)
	}
	want := ref.Stats()[len(ref.Stats())-1]
	for _, name := range names {
		st, _ := s2.sched.Get(name)
		if st.Last == nil {
			t.Fatalf("fleet %s has no final stats", name)
		}
		if !reflect.DeepEqual(*st.Last, want) {
			t.Errorf("fleet %s resumed trajectory diverged:\n got %+v\nwant %+v", name, *st.Last, want)
		}
	}

	// /metrics reports the boot-time resumes.
	resp, err := http.Get(ts2.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := jsonDecode(resp, &m); err != nil {
		t.Fatal(err)
	}
	if m.Fleet.ResumedBoot != uint64(len(names)) {
		t.Errorf("resumed_at_boot = %d, want %d", m.Fleet.ResumedBoot, len(names))
	}
}

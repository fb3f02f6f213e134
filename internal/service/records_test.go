package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/lifetime"
)

// rawCheckpoint writes a lifetime pair checkpoint the way earlier
// versions of the server did: straight to its file under the data dir.
type rawCheckpoint string

func (p rawCheckpoint) Load() ([]byte, error) { return nil, nil }

func (p rawCheckpoint) Save(data []byte) error { return os.WriteFile(string(p), data, 0o644) }

// stopAfter cancels after a fixed number of Err polls: the lifetime
// driver polls once per epoch step, so it stops at an exact epoch.
type stopAfter struct {
	context.Context
	polls int
}

func (c *stopAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestBootResumesEarlierLayout boots over a data dir whose sidecars
// were written as raw files in the established layout — a fleet
// registration with its engine checkpoint, and an interrupted lifetime
// job's record with its pair checkpoint — and requires both to resume:
// the fleet from its checkpointed epoch, the job to a payload
// byte-identical to an uninterrupted run.
func TestBootResumesEarlierLayout(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"checkpoints", "fleets"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	builder := testFleetBuilder(2)
	cfg, _ := builder(fleetops.Registration{})
	eng, err := lifetime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		eng.Step(1)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "fleets", "pop.fleet"), []byte(`{"name":"pop","options":{"trace_length":0,"trace_stride":0,"population":0,"years":0,"epoch_days":0,"variation_sigma":0,"attack_years":0,"fleet_seed":0},"interval":"1h"}`))
	writeFile(t, filepath.Join(dir, "fleets", "pop.ckpt"), snap)

	o := experiments.Options{TraceLength: 900, TraceStride: 531, Population: 200, Years: 0.5, EpochDays: 30, FleetSeed: 9}
	spec, _ := experiments.Lookup("lifetime")
	canon := spec.CanonicalOptions(o)
	key := ResultKey("lifetime", canon)
	ckpt := rawCheckpoint(filepath.Join(dir, "checkpoints", key+".ckpt"))
	if _, err := experiments.LifetimeCheckpointed(&stopAfter{context.Background(), 2}, canon, ckpt, 1); !errors.Is(err, experiments.ErrLifetimeInterrupted) {
		t.Fatalf("interrupting the job: %v", err)
	}
	optJSON, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "checkpoints", key+".job"),
		[]byte(fmt.Sprintf(`{"key":%q,"experiment":"lifetime","options":%s,"client":"tester"}`, key, optJSON)))

	fleetCfg := fastFleetConfig(builder)
	fleetCfg.DataDir = dir
	s, ts := newTestServer(t, fleetCfg)

	waitFor(t, func() bool { return s.Store().Has(key) })
	var got json.RawMessage
	if code := getJSON(t, ts.URL+"/v1/results/"+key, &got); code != http.StatusOK {
		t.Fatalf("resumed result: status %d", code)
	}
	res, err := experiments.Run("lifetime", canon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.NewPayload(res, canon).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("resumed lifetime payload not byte-identical to an uninterrupted run")
	}

	st := waitForStatus(t, ts.URL, "pop", func(st fleetops.Status) bool { return st.Epoch > 0 })
	if !st.Resumed || st.Epoch != 6 {
		t.Errorf("fleet status %+v: want resumed at epoch 6 (checkpoint 5 + one tick)", st)
	}
	if m := s.metrics(); m.Jobs.Resumed != 1 || m.Fleet.ResumedBoot != 1 {
		t.Errorf("resumed jobs = %d, fleets at boot = %d; want 1 and 1", m.Jobs.Resumed, m.Fleet.ResumedBoot)
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFleetRegisterUnpersisted503 makes the store unable to write
// fleet registrations: POST /v1/fleets answers 503 (the server, not
// the request, is at fault) and nothing is scheduled.
func TestFleetRegisterUnpersisted503(t *testing.T) {
	dir := t.TempDir()
	cfg := fastFleetConfig(testFleetBuilder(0.5))
	cfg.DataDir = dir
	_, ts := newTestServer(t, cfg)
	fleets := filepath.Join(dir, "fleets")
	if err := os.RemoveAll(fleets); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fleets, []byte("not a directory"))

	if code := postJSON(t, ts.URL+"/v1/fleets", `{"name":"pop"}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("register on a broken store: status %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/v1/fleets/pop", nil); code != http.StatusNotFound {
		t.Errorf("unpersisted fleet is served: status %d", code)
	}
}

// TestCorruptJobCheckpointQuarantined puts a job checkpoint that
// LifetimeCheckpointed must reject under a lifetime job's key, once as
// garbage bytes and once as a real pair checkpoint written for
// different options. The job must still answer, byte-identical to an
// uninterrupted run, with the bad checkpoint quarantined and no job
// record left to resubmit at the next boot.
func TestCorruptJobCheckpointQuarantined(t *testing.T) {
	o := experiments.Options{TraceLength: 900, TraceStride: 531, Population: 200, Years: 0.5, EpochDays: 30, FleetSeed: 9}
	spec, _ := experiments.Lookup("lifetime")
	canon := spec.CanonicalOptions(o)
	key := ResultKey("lifetime", canon)
	res, err := experiments.Run("lifetime", canon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.NewPayload(res, canon).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	optJSON, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		write func(path string)
	}{
		{"garbage", func(path string) { writeFile(t, path, []byte("garbage")) }},
		{"other options", func(path string) {
			other := canon
			other.FleetSeed++
			if _, err := experiments.LifetimeCheckpointed(&stopAfter{context.Background(), 2}, other, rawCheckpoint(path), 1); !errors.Is(err, experiments.ErrLifetimeInterrupted) {
				t.Fatalf("writing the mismatched checkpoint: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "checkpoints", key+".ckpt")
			if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
				t.Fatal(err)
			}
			tc.write(ckpt)
			bad, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})

			var job Job
			if code := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"experiment":"lifetime","options":%s}`, optJSON), &job); code != http.StatusAccepted && code != http.StatusOK {
				t.Fatalf("submit: status %d", code)
			}
			waitFor(t, func() bool {
				getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job)
				return job.State == StateDone || job.State == StateFailed
			})
			if job.State != StateDone {
				t.Fatalf("job over a bad checkpoint %s: %s", job.State, job.Error)
			}
			var got json.RawMessage
			if code := getJSON(t, ts.URL+"/v1/results/"+key, &got); code != http.StatusOK {
				t.Fatalf("result: status %d", code)
			}
			if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
				t.Error("payload after quarantine not byte-identical to an uninterrupted run")
			}
			if kept, err := os.ReadFile(ckpt + ".quarantine"); err != nil || !bytes.Equal(kept, bad) {
				t.Errorf("bad checkpoint not kept aside as .quarantine (%v)", err)
			}
			for _, left := range []string{ckpt, filepath.Join(dir, "checkpoints", key+".job")} {
				if _, err := os.Stat(left); !os.IsNotExist(err) {
					t.Errorf("%s survived the finished job (%v)", filepath.Base(left), err)
				}
			}
			if q := s.Store().Stats().Quarantined; q != 1 {
				t.Errorf("store quarantined %d files, want 1", q)
			}
		})
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"penelope/internal/experiments"
	"penelope/internal/fleetops"
	"penelope/internal/lifetime"
)

// earlierJobSnapshot returns the snapshot an earlier binary kept for a
// lifetime job interrupted after `epochs` epochs: both engines'
// Snapshots, length-prefixed under the penelope-fleet-pair-v1 header.
// No current code reads one.
func earlierJobSnapshot(t *testing.T, o experiments.Options, epochs int) []byte {
	t.Helper()
	run, err := lifetime.Open(experiments.FleetConfig(o, false), experiments.FleetConfig(o, true))
	if err != nil {
		t.Fatal(err)
	}
	run.Run(context.Background(), epochs, 0)
	out := []byte("penelope-fleet-pair-v1\n")
	for _, e := range run.Engines {
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(len(snap)))
		out = append(out, snap...)
	}
	return out
}

// TestBootResumesEarlierLayout boots over a data dir whose sidecars
// were written as raw files in the established layout — a fleet
// registration with its engine checkpoint, and an interrupted lifetime
// job's record with the pair snapshot earlier binaries kept beside it —
// and requires both to resume: the fleet from its checkpointed epoch,
// the job by recomputing to a payload byte-identical to an
// uninterrupted run. The job snapshot is left where it was, unread.
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
	jobSnap := earlierJobSnapshot(t, canon, 2)
	ckpt := filepath.Join(dir, "checkpoints", key+".ckpt")
	writeFile(t, ckpt, jobSnap)
	optJSON, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "checkpoints", key+".job"),
		[]byte(fmt.Sprintf(`{"key":%q,"experiment":"lifetime","options":%s,"client":"tester"}`, key, optJSON)))

	fleetCfg := fastFleetConfig(builder)
	fleetCfg.DataDir = dir
	s, ts := newTestServer(t, fleetCfg)

	waitFor(t, func() bool { return s.store.Has(key) })
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
		t.Error("recomputed lifetime payload not byte-identical to an uninterrupted run")
	}
	if left, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(left, jobSnap) {
		t.Errorf("earlier job snapshot not left as it was (%v)", err)
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

// TestStaleJobCheckpointIgnored puts a job snapshot of the kind earlier
// binaries wrote under a lifetime job's key, once as garbage bytes and
// once as a real pair snapshot written for different options. Neither
// is read: the job answers byte-identical to an uninterrupted run,
// nothing is quarantined, no job record is left to resubmit at the next
// boot, and the stale file stays as it was.
func TestStaleJobCheckpointIgnored(t *testing.T) {
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
	other := canon
	other.FleetSeed++

	for _, tc := range []struct {
		name  string
		stale []byte
	}{
		{"garbage", []byte("garbage")},
		{"other options", earlierJobSnapshot(t, other, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "checkpoints", key+".ckpt")
			if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
				t.Fatal(err)
			}
			writeFile(t, ckpt, tc.stale)
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
				t.Fatalf("job over a stale snapshot %s: %s", job.State, job.Error)
			}
			var got json.RawMessage
			if code := getJSON(t, ts.URL+"/v1/results/"+key, &got); code != http.StatusOK {
				t.Fatalf("result: status %d", code)
			}
			if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
				t.Error("payload over a stale snapshot not byte-identical to an uninterrupted run")
			}
			if left, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(left, tc.stale) {
				t.Errorf("stale snapshot not left as it was (%v)", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "checkpoints", key+".job")); !os.IsNotExist(err) {
				t.Errorf("job record survived the finished job (%v)", err)
			}
			if q := s.store.Stats().Quarantined; q != 0 {
				t.Errorf("store quarantined %d files, want 0", q)
			}
		})
	}
}

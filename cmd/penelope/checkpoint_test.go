package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"penelope/internal/experiments"
)

// TestFileCheckpointResumes runs a small CLI lifetime job through its
// -checkpoint file, then reruns it from the file the first run left:
// both answers are byte-identical to an uncheckpointed run, and no temp
// file is left beside the checkpoint.
func TestFileCheckpointResumes(t *testing.T) {
	path := fileCheckpoint(filepath.Join(t.TempDir(), "fleet.ckpt"))
	if data, err := path.Load(); data != nil || err != nil {
		t.Fatalf("missing checkpoint loaded as %d bytes, %v", len(data), err)
	}
	o := experiments.Options{TraceLength: 900, TraceStride: 531, Population: 200, Years: 0.5, EpochDays: 30}
	want, err := experiments.NewPayload(experiments.Lifetime(o), o).MarshalCompact()
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		res, err := experiments.LifetimeCheckpointed(context.Background(), o, path, 2)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got, err := experiments.NewPayload(res, o).MarshalCompact()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: payload differs from an uncheckpointed run", run)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(string(path)))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "fleet.ckpt" {
		t.Errorf("checkpoint dir holds %v, want just fleet.ckpt", entries)
	}
}

// TestFileCheckpointBadFileFails requires a -checkpoint file that does
// not decode to fail the run and stay where it is: the CLI never
// discards a file the user pointed it at.
func TestFileCheckpointBadFileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := experiments.Options{TraceLength: 900, TraceStride: 531, Population: 200, Years: 0.5, EpochDays: 30}
	if _, err := experiments.LifetimeCheckpointed(context.Background(), o, fileCheckpoint(path), 0); !errors.Is(err, experiments.ErrBadCheckpoint) {
		t.Fatalf("run over a garbage checkpoint returned %v, want ErrBadCheckpoint", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "garbage" {
		t.Errorf("bad checkpoint file changed: %q, %v", data, err)
	}
}

package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"penelope/internal/store"
	"penelope/internal/store/vfs"
)

// crashKey names the job checkpoint record the crash tests run
// through, as the service names it by result key.
const crashKey = "00000000c0ffee00"

// openCheckpoint opens a store on fsys rooted at dir and returns it
// with the load/save view of the job checkpoint under crashKey, the
// record a lifetime job checkpoints through in the service.
func openCheckpoint(t *testing.T, dir string, fsys vfs.FS) (*store.Store, store.Slot) {
	t.Helper()
	st, err := store.OpenConfig(store.Config{Dir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	return st, st.Slot(store.KindJobCheckpoint, crashKey)
}

// crashOptions is the smallest fleet that still crosses several
// checkpoint intervals: a handful of epochs, checkpointed every other
// one.
func crashOptions() Options {
	o := fleetOptions()
	o.Years = 0.4
	o.AttackYears = 0
	o.Population = 200
	return o
}

// TestCheckpointWriteDiscipline is the regression net for the
// un-fsynced checkpoint writer: a saved fleet pair must follow the full
// temp-write/fsync/close/rename/dir-fsync discipline. The CLI once
// wrote checkpoints with os.WriteFile + os.Rename and no sync at all —
// a crash shortly after "checkpoint written" could take the file back.
func TestCheckpointWriteDiscipline(t *testing.T) {
	f := vfs.NewFaultFS(vfs.OS{})
	_, ckpt := openCheckpoint(t, t.TempDir(), f)
	data, _, _ := pairImage(t, crashOptions(), 0)
	if err := ckpt.Save(data); err != nil {
		t.Fatal(err)
	}
	if err := vfs.VerifyDiscipline(f.Log()); err != nil {
		t.Fatalf("checkpoint writer violates the durability discipline: %v", err)
	}
}

// TestLifetimeCheckpointCrashMatrix crashes a checkpointed lifetime run
// — checkpointing through the store, as the service runs it — at every
// I/O step of every checkpoint load and save (with torn-write
// variants), then reboots the store and resumes from whatever the
// crash left on disk. The invariant is the paper-grade one: the resumed
// run's payload is byte-identical to an uninterrupted run — a crash can
// cost recomputed epochs, never correctness.
func TestLifetimeCheckpointCrashMatrix(t *testing.T) {
	o := crashOptions()
	want := marshalLifetime(t, Lifetime(o), o)

	// Rehearsal: run fault-free through the injector to enumerate the
	// checkpoint writer's I/O steps.
	r := vfs.NewFaultFS(vfs.OS{})
	_, ckpt := openCheckpoint(t, t.TempDir(), r)
	base := r.Steps() // the store's boot scan
	if _, err := LifetimeCheckpointed(context.Background(), o, ckpt, 2); err != nil {
		t.Fatalf("rehearsal run failed: %v", err)
	}
	steps := r.Steps()
	if steps-base < 12 {
		t.Fatalf("rehearsal saw only %d I/O steps; expected several checkpoint writes", steps-base)
	}
	if err := vfs.VerifyDiscipline(r.Log()); err != nil {
		t.Fatalf("write discipline: %v", err)
	}
	writes := map[int]int{}
	for _, rec := range r.Log() {
		if rec.Op == vfs.OpWrite {
			writes[rec.Step] = rec.N
		}
	}

	for step := base; step < steps; step++ {
		arms := []func(f *vfs.FaultFS){func(f *vfs.FaultFS) { f.CrashAt(step) }}
		if n := writes[step]; n > 1 {
			arms = append(arms, func(f *vfs.FaultFS) { f.CrashAtWrite(step, n/2) })
		}
		for vi, arm := range arms {
			label := fmt.Sprintf("step %d variant %d", step, vi)
			dir := t.TempDir()
			f := vfs.NewFaultFS(vfs.OS{})
			_, ckpt := openCheckpoint(t, dir, f)
			arm(f)
			res, err := LifetimeCheckpointed(context.Background(), o, ckpt, 2)
			if err == nil {
				// Only a crash at the very last directory sync lets the
				// run finish; the answer must already be right.
				if got := marshalLifetime(t, res, o); !bytes.Equal(got, want) {
					t.Fatalf("%s: completed run diverged", label)
				}
			}
			if !f.Crashed() {
				t.Fatalf("%s: crash step never executed", label)
			}

			// Reboot: plain filesystem, resume from whatever survived.
			rebooted, ckpt := openCheckpoint(t, dir, vfs.OS{})
			if st := rebooted.Stats(); st.Quarantined != 0 {
				t.Fatalf("%s: reboot quarantined %d files", label, st.Quarantined)
			}
			if _, err := os.Stat(filepath.Join(dir, "checkpoints", ".tmp-"+crashKey+".ckpt")); !os.IsNotExist(err) {
				t.Fatalf("%s: temp checkpoint survived the reboot scan", label)
			}
			if data, err := os.ReadFile(filepath.Join(dir, "checkpoints", crashKey+".ckpt")); err == nil {
				// Whatever is under the final name must be a complete,
				// readable checkpoint — never a torn prefix.
				if !bytes.HasPrefix(data, []byte(fleetPairMagic)) {
					t.Fatalf("%s: torn checkpoint under the final name", label)
				}
			}
			res, err = LifetimeCheckpointed(context.Background(), o, ckpt, 2)
			if err != nil {
				t.Fatalf("%s: resume failed: %v", label, err)
			}
			if got := marshalLifetime(t, res, o); !bytes.Equal(got, want) {
				t.Fatalf("%s: resumed payload not byte-identical to uninterrupted run", label)
			}
		}
	}
}

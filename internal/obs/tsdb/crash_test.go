package tsdb

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"penelope/internal/obs"
	"penelope/internal/store/vfs"
)

// TestCrashMatrixBlockFlush interrupts a block flush at every I/O step
// (plus torn-write variants at every write step) and reboots the DB
// over the surviving tree. The invariants are the same all-or-nothing
// contract the result store proves: no temp litter survives the boot
// scan, nothing is quarantined (a crash between syscalls must never
// leave a torn file under a final block name), and the flushed samples
// are either fully absent or fully present.
func TestCrashMatrixBlockFlush(t *testing.T) {
	type handle struct {
		db *DB
		c  *obs.Counter
	}
	build := func(t *testing.T, dir string, fsys vfs.FS) handle {
		reg := obs.NewRegistry()
		c := reg.Counter("crash_total", "")
		db, err := Open(Config{
			Registry: reg, Interval: time.Second,
			Dir: dir, fs: fsys, flushEvery: 3,
			clock: func() time.Time { return t0 },
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return handle{db: db, c: c}
	}
	// The op under test: three samples, the third of which flushes.
	op := func(h handle) {
		for i := 0; i < 3; i++ {
			h.c.Inc()
			h.db.Sample(t0.Add(time.Duration(i) * time.Second))
		}
	}

	// Rehearsal: fault-free run to learn the flush's step span and to
	// verify the write discipline (fsync before rename, dir sync after).
	f := vfs.NewFaultFS(vfs.OS{})
	h := build(t, t.TempDir(), f)
	base := f.Steps()
	op(h)
	total := f.Steps()
	if total == base {
		t.Fatal("flush performed no I/O; nothing to crash")
	}
	if err := vfs.VerifyDiscipline(f.Log()); err != nil {
		t.Fatalf("write discipline: %v", err)
	}
	writes := map[int]int{}
	for _, rec := range f.Log() {
		if rec.Step >= base && rec.Op == vfs.OpWrite && rec.N > 1 {
			writes[rec.Step] = rec.N
		}
	}

	type variant struct {
		label string
		arm   func(f *vfs.FaultFS, step int)
	}
	for step := base; step < total; step++ {
		variants := []variant{{"crash", func(f *vfs.FaultFS, s int) { f.CrashAt(s) }}}
		if n := writes[step]; n > 1 {
			variants = append(variants,
				variant{"torn@1", func(f *vfs.FaultFS, s int) { f.CrashAtWrite(s, 1) }},
				variant{fmt.Sprintf("torn@%d", n/2), func(f *vfs.FaultFS, s int) { f.CrashAtWrite(s, n/2) }})
		}
		for _, v := range variants {
			label := fmt.Sprintf("step-%d/%s", step, v.label)
			dir := t.TempDir()
			f := vfs.NewFaultFS(vfs.OS{})
			h := build(t, dir, f)
			v.arm(f, step)
			op(h) // flush failure is swallowed and counted; the crash freezes the tree
			if !f.Crashed() {
				t.Fatalf("%s: crash step never executed", label)
			}

			re, err := Open(Config{
				Registry: obs.NewRegistry(), Interval: time.Second,
				Dir: dir, clock: func() time.Time { return t0 },
			})
			if err != nil {
				t.Fatalf("%s: reboot failed: %v", label, err)
			}
			st := re.Stats()
			if st.BlocksQuarantined != 0 {
				t.Errorf("%s: reboot quarantined %d blocks; crash must be all-or-nothing", label, st.BlocksQuarantined)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), ".tmp-") {
					t.Errorf("%s: temp litter %s survived reboot", label, e.Name())
				}
			}
			// All-or-nothing on content: the counter series either never
			// made it to disk or carries all three samples, bit-exact.
			if s, ok := re.series["crash_total"]; ok {
				if s.raw.Len() != 3 {
					t.Errorf("%s: rebooted series has %d samples, want 0 (absent) or 3", label, s.raw.Len())
				}
				for i := 0; i < s.raw.Len(); i++ {
					p := s.raw.At(i)
					if p.v != float64(i+1) {
						t.Errorf("%s: sample %d = %v, want %d", label, i, p.v, i+1)
					}
				}
			} else if st.BlocksLoaded != 0 {
				t.Errorf("%s: block loaded but series missing", label)
			}
			re.Close()
		}
	}
}

// TestFlushFailureRetries: a flush that fails with ENOSPC leaves the
// watermarks untouched, so the next flush carries the same samples and
// nothing is lost once the disk recovers.
func TestFlushFailureRetries(t *testing.T) {
	dir := t.TempDir()
	f := vfs.NewFaultFS(vfs.OS{})
	reg := obs.NewRegistry()
	c := reg.Counter("retry_total", "")
	db, err := Open(Config{Registry: reg, Interval: time.Second, Dir: dir, fs: f, flushEvery: 2,
		clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first flush's temp-file open.
	f.FailAt(f.Steps(), vfs.ErrNoSpace)
	c.Inc()
	db.Sample(t0)
	c.Inc()
	db.Sample(t0.Add(time.Second)) // flush #1: fails
	if st := db.Stats(); st.FlushFailures != 1 || st.BlocksWritten != 0 {
		t.Fatalf("after failed flush: %+v", st)
	}
	c.Inc()
	db.Sample(t0.Add(2 * time.Second))
	c.Inc()
	db.Sample(t0.Add(3 * time.Second)) // flush #2: succeeds, carries all 4 samples
	db.Close()

	re, err := Open(Config{Registry: obs.NewRegistry(), Interval: time.Second, Dir: dir,
		clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	s, ok := re.series["retry_total"]
	if !ok || s.raw.Len() != 4 {
		t.Fatalf("recovered %v samples, want all 4 despite the failed flush", s)
	}
}

package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"penelope/internal/store/vfs"
)

// crashScenario is one write path under crash-matrix test: setup
// builds the pre-crash state through a healthy store, op is the write
// the crash interrupts, and check asserts the scenario's all-or-nothing
// invariant on the rebooted store.
type crashScenario struct {
	name  string
	cfg   Config // Dir and FS are filled by the harness
	setup func(t *testing.T, s *Store)
	op    func(s *Store) error
	check func(t *testing.T, s *Store)
}

// rebootInvariants are the matrix-wide guarantees, independent of the
// scenario: boot succeeds, every indexed entry verifies (zero
// un-quarantined corruption), nothing was quarantined (a crash between
// syscalls must never produce a torn file under a final name), and no
// temp litter survives the boot scan.
func rebootInvariants(t *testing.T, s *Store, label string) {
	t.Helper()
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	for _, key := range keys {
		if _, ok := s.Get(key); !ok {
			t.Errorf("%s: indexed key %s failed verification after reboot", label, key)
		}
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Errorf("%s: reboot quarantined %d entries; crash must be all-or-nothing", label, st.Quarantined)
	}
	for _, sub := range []string{"results", "checkpoints", "fleets"} {
		entries, err := os.ReadDir(filepath.Join(s.dir, sub))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				t.Errorf("%s: temp litter %s/%s survived reboot", label, sub, e.Name())
			}
		}
	}
}

// runCrashMatrix rehearses the scenario fault-free to count its I/O
// steps and verify the write discipline, then replays it once per
// step with a simulated crash there — plus a torn-write variant for
// every write step — rebooting the store each time and asserting the
// invariants.
func runCrashMatrix(t *testing.T, sc crashScenario) {
	build := func(t *testing.T, fsys vfs.FS) (Config, *Store) {
		cfg := sc.cfg
		cfg.Dir = t.TempDir()
		plain := cfg
		s, err := OpenConfig(plain)
		if err != nil {
			t.Fatal(err)
		}
		if sc.setup != nil {
			sc.setup(t, s)
		}
		cfg.FS = fsys
		return cfg, nil
	}

	// Rehearsal: learn the op's step span and check fsync ordering.
	f := vfs.NewFaultFS(vfs.OS{})
	cfg, _ := build(t, f)
	s, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := f.Steps()
	if err := sc.op(s); err != nil {
		t.Fatalf("%s: fault-free op failed: %v", sc.name, err)
	}
	total := f.Steps()
	if total == base {
		t.Fatalf("%s: op performed no I/O; nothing to crash", sc.name)
	}
	if err := vfs.VerifyDiscipline(f.Log()); err != nil {
		t.Fatalf("%s: write discipline: %v", sc.name, err)
	}
	writes := map[int]int{} // step -> write size, for torn variants
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
			label := fmt.Sprintf("%s/step-%d/%s", sc.name, step, v.label)
			f := vfs.NewFaultFS(vfs.OS{})
			cfg, _ := build(t, f)
			s, err := OpenConfig(cfg)
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			v.arm(f, step)
			sc.op(s) // crash makes it fail; the error itself is scenario-dependent
			if !f.Crashed() {
				t.Fatalf("%s: crash step never executed", label)
			}
			plain := cfg
			plain.FS = nil
			re, err := OpenConfig(plain)
			if err != nil {
				t.Fatalf("%s: reboot failed: %v", label, err)
			}
			rebootInvariants(t, re, label)
			if sc.check != nil {
				sc.check(t, re)
			}
		}
	}
}

var (
	crashOld = []byte(`{"v":"old","pad":"0123456789abcdef"}`)
	crashNew = []byte(`{"v":"new","pad":"fedcba9876543210"}`)
)

func TestCrashMatrixResultPutFresh(t *testing.T) {
	runCrashMatrix(t, crashScenario{
		name: "result-put-fresh",
		setup: func(t *testing.T, s *Store) {
			if err := s.Put(key(0), crashOld); err != nil {
				t.Fatal(err)
			}
		},
		op: func(s *Store) error { return s.Put(key(1), crashNew) },
		check: func(t *testing.T, s *Store) {
			if got, ok := s.Get(key(0)); !ok || !bytes.Equal(got, crashOld) {
				t.Errorf("bystander entry damaged: %q, %v", got, ok)
			}
			if got, ok := s.Get(key(1)); ok && !bytes.Equal(got, crashNew) {
				t.Errorf("in-flight entry neither absent nor complete: %q", got)
			}
		},
	})
}

func TestCrashMatrixResultOverwrite(t *testing.T) {
	runCrashMatrix(t, crashScenario{
		name: "result-overwrite",
		setup: func(t *testing.T, s *Store) {
			if err := s.Put(key(0), crashOld); err != nil {
				t.Fatal(err)
			}
		},
		op: func(s *Store) error { return s.Put(key(0), crashNew) },
		check: func(t *testing.T, s *Store) {
			got, ok := s.Get(key(0))
			if !ok || (!bytes.Equal(got, crashOld) && !bytes.Equal(got, crashNew)) {
				t.Errorf("overwritten entry = %q, %v; want exactly old or new bytes", got, ok)
			}
		},
	})
}

// recordIs asserts the rebooted store holds the record of kind k under
// name with exactly one of the allowed byte strings (nil: absent).
func recordIs(t *testing.T, s *Store, k Kind, name string, allowed ...[]byte) {
	t.Helper()
	got, err := s.ReadRecord(k, name)
	for _, want := range allowed {
		if err == nil && (want == nil && got == nil || want != nil && bytes.Equal(got, want)) {
			return
		}
	}
	t.Errorf("%s %s = %q (err %v); want exactly one of %q", kinds[k].label, name, got, err, allowed)
}

func TestCrashMatrixJobRecord(t *testing.T) {
	rec := []byte(`{"key":"` + key(0) + `","experiment":"lifetime","options":{"population":1000},"client":"crash"}`)
	runCrashMatrix(t, crashScenario{
		name: "job-record",
		op:   func(s *Store) error { return s.PutRecord(KindJob, key(0), rec) },
		check: func(t *testing.T, s *Store) {
			// Fully absent (boot recovery re-runs nothing) or complete.
			if recs := s.Records(KindJob, nil); len(recs) > 1 {
				t.Errorf("job record duplicated: %+v", recs)
			}
			recordIs(t, s, KindJob, key(0), nil, rec)
		},
	})
}

func TestCrashMatrixRemoveJob(t *testing.T) {
	rec := []byte(`{"key":"` + key(0) + `","experiment":"lifetime","options":{}}`)
	runCrashMatrix(t, crashScenario{
		name: "remove-job",
		setup: func(t *testing.T, s *Store) {
			if err := s.PutRecord(KindJob, key(0), rec); err != nil {
				t.Fatal(err)
			}
		},
		op: func(s *Store) error {
			s.RemoveRecord(KindJob, key(0))
			return nil
		},
		check: func(t *testing.T, s *Store) {
			recordIs(t, s, KindJob, key(0), nil, rec)
		},
	})
}

func TestCrashMatrixFleetSidecar(t *testing.T) {
	runCrashMatrix(t, crashScenario{
		name: "fleet-register",
		op:   func(s *Store) error { return s.PutRecord(KindFleet, "pop-a", crashNew) },
		check: func(t *testing.T, s *Store) {
			recs := s.Records(KindFleet, nil)
			if len(recs) == 1 && (recs[0].Name != "pop-a" || !bytes.Equal(recs[0].Data, crashNew)) {
				t.Errorf("fleet sidecar partially present: %+v", recs[0])
			}
			if len(recs) > 1 {
				t.Errorf("Records = %+v", recs)
			}
		},
	})
}

func TestCrashMatrixFleetCheckpoint(t *testing.T) {
	runCrashMatrix(t, crashScenario{
		name: "fleet-checkpoint",
		setup: func(t *testing.T, s *Store) {
			if err := s.PutRecord(KindFleetCheckpoint, "pop-a", crashOld); err != nil {
				t.Fatal(err)
			}
		},
		op: func(s *Store) error { return s.PutRecord(KindFleetCheckpoint, "pop-a", crashNew) },
		check: func(t *testing.T, s *Store) {
			recordIs(t, s, KindFleetCheckpoint, "pop-a", crashOld, crashNew)
		},
	})
}

// TestCrashMatrixEveryRecordKind runs the overwrite and remove paths of
// every record kind through the matrix: a crash leaves each record
// exactly old, exactly new, or (for a remove) absent, and never
// touches a bystander of another kind under the same name.
func TestCrashMatrixEveryRecordKind(t *testing.T) {
	const name = "0000abcd"
	for k := Kind(0); k < numKinds; k++ {
		other := (k + 1) % numKinds
		setup := func(t *testing.T, s *Store) {
			for _, kk := range []Kind{k, other} {
				if err := s.PutRecord(kk, name, crashOld); err != nil {
					t.Fatal(err)
				}
			}
		}
		t.Run(kinds[k].label+"/overwrite", func(t *testing.T) {
			runCrashMatrix(t, crashScenario{
				name:  "overwrite",
				setup: setup,
				op:    func(s *Store) error { return s.PutRecord(k, name, crashNew) },
				check: func(t *testing.T, s *Store) {
					recordIs(t, s, k, name, crashOld, crashNew)
					recordIs(t, s, other, name, crashOld)
				},
			})
		})
		t.Run(kinds[k].label+"/remove", func(t *testing.T) {
			runCrashMatrix(t, crashScenario{
				name:  "remove",
				setup: setup,
				op:    func(s *Store) error { s.RemoveRecord(k, name); return nil },
				check: func(t *testing.T, s *Store) {
					recordIs(t, s, k, name, nil, crashOld)
					recordIs(t, s, other, name, crashOld)
				},
			})
		})
	}
}

func TestCrashMatrixEviction(t *testing.T) {
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 100)
	}
	budget := int64(350) // holds three 100-byte payloads, not four
	runCrashMatrix(t, crashScenario{
		name: "eviction",
		cfg:  Config{Budget: budget},
		setup: func(t *testing.T, s *Store) {
			for i := 0; i < 3; i++ {
				if err := s.Put(key(i), payload(i)); err != nil {
					t.Fatal(err)
				}
			}
		},
		op: func(s *Store) error { return s.Put(key(3), payload(3)) },
		check: func(t *testing.T, s *Store) {
			// Boot re-enforces the budget, so even a crash mid-eviction
			// cannot leave the store oversubscribed; whatever survived
			// is complete.
			if st := s.Stats(); st.Bytes > budget {
				t.Errorf("rebooted store holds %d bytes over budget %d", st.Bytes, budget)
			}
			for i := 0; i < 4; i++ {
				if got, ok := s.Get(key(i)); ok && !bytes.Equal(got, payload(i)) {
					t.Errorf("entry %d present but wrong: %q", i, got)
				}
			}
		},
	})
}

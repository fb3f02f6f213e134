package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"penelope/internal/store/vfs"
)

func pad(i, n int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, n) }

func openBudget(t *testing.T, budget int64) *Store {
	t.Helper()
	s, err := OpenConfig(Config{Dir: t.TempDir(), Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBudgetEvictsLRUOrder(t *testing.T) {
	s := openBudget(t, 400)
	for i := 0; i < 4; i++ {
		if err := s.Put(key(i), pad(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is now the least recently used.
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("warm get failed")
	}
	if err := s.Put(key(4), pad(4, 100)); err != nil {
		t.Fatal(err)
	}
	// Low watermark is 350, so the pass evicts down past it: keys 1 and
	// 2 (the two least recently used) go, the touched key 0 stays.
	if s.Has(key(1)) || s.Has(key(2)) {
		t.Errorf("LRU entries survived eviction: has1=%v has2=%v", s.Has(key(1)), s.Has(key(2)))
	}
	for _, i := range []int{0, 3, 4} {
		if !s.Has(key(i)) {
			t.Errorf("recently used key %d evicted", i)
		}
	}
	st := s.Stats()
	if st.Evictions != 2 || st.EvictedBytes != 200 {
		t.Errorf("evictions = %d (%d bytes), want 2 (200)", st.Evictions, st.EvictedBytes)
	}
	if st.Bytes > 400 {
		t.Errorf("resident bytes %d over budget", st.Bytes)
	}
}

func TestBudgetRefusalAndRecovery(t *testing.T) {
	s := openBudget(t, 100)
	if err := s.Put(key(0), pad(0, 60)); err != nil {
		t.Fatal(err)
	}
	// A payload larger than the whole budget can never fit: refused,
	// store degraded — and the resident entry was not sacrificed for a
	// write that would fail anyway.
	err := s.Put(key(1), pad(1, 150))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("oversized put = %v, want ErrBudget", err)
	}
	if !s.Degraded() {
		t.Error("store not degraded after budget refusal")
	}
	if st := s.Stats(); st.BudgetRefusals != 1 {
		t.Errorf("budget refusals = %d", st.BudgetRefusals)
	}
	// Checkpoint-tier writes are never refused, degraded or not.
	if err := s.PutRecord(KindJob, key(2), []byte(`{}`)); err != nil {
		t.Fatalf("job record refused under budget pressure: %v", err)
	}
	if err := s.PutRecord(KindFleetCheckpoint, "pop-a", pad(3, 500)); err != nil {
		t.Fatalf("fleet checkpoint refused under budget pressure: %v", err)
	}
	if err := s.PutRecord(KindFleet, "pop-a", pad(4, 500)); err != nil {
		t.Fatalf("fleet sidecar refused under budget pressure: %v", err)
	}
	// A result write that fits recovers the store.
	if err := s.Put(key(5), pad(5, 30)); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Error("store still degraded after a successful result write")
	}
}

func TestOverwriteNeverEvictsItsOwnTarget(t *testing.T) {
	s := openBudget(t, 100)
	if err := s.Put(key(0), pad(0, 90)); err != nil {
		t.Fatal(err)
	}
	// Growing the same key stays within budget once its old size is
	// released; the entry must not be evicted to make room for itself.
	if err := s.Put(key(0), pad(1, 95)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(0))
	if !ok || !bytes.Equal(got, pad(1, 95)) {
		t.Fatalf("overwrite lost the entry: %v", ok)
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Errorf("overwrite evicted %d entries", st.Evictions)
	}
}

func TestBootEnforcesBudgetByMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenConfig(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 4; i++ {
		if err := s.Put(key(i), pad(i, 100)); err != nil {
			t.Fatal(err)
		}
		// Make the on-disk age order explicit: key 0 oldest.
		path := filepath.Join(dir, "results", key(i)+".res")
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenConfig(Config{Dir: dir, Budget: 250})
	if err != nil {
		t.Fatal(err)
	}
	// 400 resident bytes against a 250 budget: boot sheds oldest-first
	// down to the low watermark (218), leaving the two newest.
	if re.Has(key(0)) || re.Has(key(1)) {
		t.Errorf("boot kept the oldest entries: has0=%v has1=%v", re.Has(key(0)), re.Has(key(1)))
	}
	if !re.Has(key(2)) || !re.Has(key(3)) {
		t.Errorf("boot evicted the newest entries")
	}
	if st := re.Stats(); st.Bytes > 250 {
		t.Errorf("boot left %d bytes over the 250 budget", st.Bytes)
	}
}

func TestRetentionExpiresIdleResults(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	s, err := OpenConfig(Config{Dir: t.TempDir(), Retention: time.Hour, clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Put(key(i), pad(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Reading key 0 refreshes its last use; key 1 then idles out.
	now = now.Add(45 * time.Minute)
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("get failed")
	}
	now = now.Add(50 * time.Minute)
	rep := s.Scrub()
	if rep.Expired != 1 {
		t.Fatalf("scrub expired %d entries, want 1 (report %+v)", rep.Expired, rep)
	}
	if !s.Has(key(0)) || s.Has(key(1)) {
		t.Errorf("retention kept the wrong entry: has0=%v has1=%v", s.Has(key(0)), s.Has(key(1)))
	}
	if st := s.Stats(); st.Expired != 1 || st.Evictions != 1 {
		t.Errorf("stats = expired %d evictions %d", st.Expired, st.Evictions)
	}
}

func TestBootEnforcesRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenConfig(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(0), pad(0, 10)); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-48 * time.Hour)
	path := filepath.Join(dir, "results", key(0)+".res")
	if err := os.Chtimes(path, stale, stale); err != nil {
		t.Fatal(err)
	}
	re, err := OpenConfig(Config{Dir: dir, Retention: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if re.Has(key(0)) {
		t.Error("boot kept a result past its retention window")
	}
	if st := re.Stats(); st.Expired != 1 {
		t.Errorf("boot expired %d, want 1", st.Expired)
	}
}

func TestPutWriteFailureDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenConfig(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(0), pad(0, 20)); err != nil {
		t.Fatal(err)
	}

	// Rehearse one Put through a fault injector to find its sync step.
	f := vfs.NewFaultFS(vfs.OS{})
	fs, err := OpenConfig(Config{Dir: dir, FS: f})
	if err != nil {
		t.Fatal(err)
	}
	base := f.Steps()
	if err := fs.Put(key(1), pad(1, 20)); err != nil {
		t.Fatal(err)
	}
	syncStep := -1
	for _, rec := range f.Log() {
		if rec.Step >= base && rec.Op == vfs.OpSync {
			syncStep = rec.Step - base
		}
	}
	if syncStep < 0 {
		t.Fatal("no sync in Put's op span")
	}

	f2 := vfs.NewFaultFS(vfs.OS{})
	s2, err := OpenConfig(Config{Dir: dir, FS: f2})
	if err != nil {
		t.Fatal(err)
	}
	f2.FailAt(f2.Steps()+syncStep, vfs.ErrNoSpace)
	if err := s2.Put(key(2), pad(2, 20)); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("put with failing sync = %v, want ErrNoSpace", err)
	}
	if !s2.Degraded() {
		t.Error("store not degraded after a write failure")
	}
	if st := s2.Stats(); st.WriteFailures != 1 {
		t.Errorf("write failures = %d", st.WriteFailures)
	}
	// The failed write is not indexed, its temp file is gone, and the
	// previously stored payloads still verify.
	if s2.Has(key(2)) {
		t.Error("failed write was cached")
	}
	if _, err := os.Stat(filepath.Join(dir, "results", ".tmp-"+key(2)+".res")); !os.IsNotExist(err) {
		t.Error("failed write left its temp file")
	}
	if got, ok := s2.Get(key(0)); !ok || !bytes.Equal(got, pad(0, 20)) {
		t.Error("bystander payload damaged by failed write")
	}
	// Retrying once the fault clears succeeds and recovers the store.
	if err := s2.Put(key(2), pad(2, 20)); err != nil {
		t.Fatal(err)
	}
	if s2.Degraded() {
		t.Error("store still degraded after successful retry")
	}
	if got, ok := s2.Get(key(2)); !ok || !bytes.Equal(got, pad(2, 20)) {
		t.Error("retried payload not served")
	}
}

func TestQuarantineFailureCounted(t *testing.T) {
	dir := t.TempDir()
	f := vfs.NewFaultFS(vfs.OS{})
	s, err := OpenConfig(Config{Dir: dir, FS: f})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(0), pad(0, 20)); err != nil {
		t.Fatal(err)
	}
	// Rot the frame behind the store's back, then fail the quarantine
	// rename itself: Get is a miss, the entry is dropped, and the
	// failure is counted rather than swallowed.
	path := filepath.Join(dir, "results", key(0)+".res")
	if err := os.WriteFile(path, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	f.FailAt(f.Steps()+1, vfs.ErrIO) // step 0: ReadFile, step 1: quarantine Rename
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("corrupt frame served")
	}
	if s.Has(key(0)) {
		t.Error("corrupt entry still indexed")
	}
	st := s.Stats()
	if st.QuarantineFailures != 1 {
		t.Errorf("quarantine failures = %d, want 1", st.QuarantineFailures)
	}
}

func TestDirsyncFailureCounted(t *testing.T) {
	dir := t.TempDir()
	f := vfs.NewFaultFS(vfs.OS{})
	s, err := OpenConfig(Config{Dir: dir, FS: f})
	if err != nil {
		t.Fatal(err)
	}
	base := f.Steps()
	if err := s.Put(key(0), pad(0, 20)); err != nil {
		t.Fatal(err)
	}
	span := f.Steps() - base // open, write, sync, close, rename, syncdir
	f.FailAt(f.Steps()+span-1, vfs.ErrIO)
	// The write itself succeeds — only the final directory sync failed —
	// but the uncertainty is counted.
	if err := s.Put(key(1), pad(1, 20)); err != nil {
		t.Fatalf("put failed on a dir-sync error: %v", err)
	}
	if st := s.Stats(); st.DirsyncFailures != 1 {
		t.Errorf("dirsync failures = %d, want 1", st.DirsyncFailures)
	}
	if got, ok := s.Get(key(1)); !ok || !bytes.Equal(got, pad(1, 20)) {
		t.Error("payload not served after dir-sync failure")
	}
}

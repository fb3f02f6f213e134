package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func key(i int) string { return fmt.Sprintf("%032x", i+1) }

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"experiment":"fig4","data":{"x":1}}`)
	if err := s.Put(key(0), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(0))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Error("Get of unknown key succeeded")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != int64(len(payload)) || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 entry / %d bytes / 1 hit / 1 miss", st, len(payload))
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 5; i++ {
		payload := []byte(fmt.Sprintf(`{"n":%d}`, i))
		want[key(i)] = payload
		if err := s.Put(key(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites replace, not duplicate.
	if err := s.Put(key(0), []byte(`{"n":0,"v":2}`)); err != nil {
		t.Fatal(err)
	}
	want[key(0)] = []byte(`{"n":0,"v":2}`)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Entries; got != 5 {
		t.Fatalf("reopened store has %d entries, want 5", got)
	}
	for k, payload := range want {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, payload) {
			t.Errorf("reopened Get(%s) = %q, %v", k, got, ok)
		}
	}
}

func TestCorruptEntriesQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(0), []byte(`{"good":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), []byte(`{"torn":true}`)); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: truncate one file mid-frame.
	torn := filepath.Join(dir, "results", key(1)+".res")
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	// And a file that is plain garbage.
	garbage := filepath.Join(dir, "results", key(2)+".res")
	if err := os.WriteFile(garbage, []byte("not a result frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a leftover temp file from an interrupted write.
	tmp := filepath.Join(dir, "results", ".tmp-"+key(3)+".res")
	if err := os.WriteFile(tmp, []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("boot failed on corrupt entries: %v", err)
	}
	st := s2.Stats()
	if st.Entries != 1 || st.Quarantined != 2 {
		t.Errorf("stats = %+v, want 1 entry and 2 quarantined", st)
	}
	if _, ok := s2.Get(key(1)); ok {
		t.Error("torn entry served")
	}
	if got, ok := s2.Get(key(0)); !ok || !bytes.Equal(got, []byte(`{"good":true}`)) {
		t.Errorf("good entry lost: %q, %v", got, ok)
	}
	if _, err := os.Stat(torn + ".quarantine"); err != nil {
		t.Errorf("torn file not quarantined: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("leftover temp file not cleaned up")
	}
}

func TestCorruptionDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(0), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit after the boot scan: Get must verify, not trust
	// the index.
	path := filepath.Join(dir, "results", key(0)+".res")
	data, _ := os.ReadFile(path)
	data[len(data)-40] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("corrupted payload served")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want quarantined entry dropped from index", st)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", "../../etc/passwd", "UPPERCASE00000000", "zzzz567890123456"} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
	}
}

func TestJobRecordsRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := []byte(`{"key":"` + key(0) + `","experiment":"lifetime","options":{"population":1000},"client":"tester"}`)
	if err := s.PutRecord(KindJob, key(0), rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoints", key(1)+".job"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Checkpoints; got != 2 {
		t.Errorf("checkpoint count = %d after boot, want 2", got)
	}
	isJSON := func(r Record) error {
		var v map[string]any
		return json.Unmarshal(r.Data, &v)
	}
	recs := s2.Records(KindJob, isJSON)
	if len(recs) != 1 || recs[0].Name != key(0) || !bytes.Equal(recs[0].Data, rec) {
		t.Fatalf("Records = %+v, want the one valid record", recs)
	}
	if got := s2.Stats().Quarantined; got != 1 {
		t.Errorf("quarantined = %d, want 1 (the broken sidecar)", got)
	}

	s2.RemoveRecord(KindJob, key(0))
	if recs := s2.Records(KindJob, isJSON); len(recs) != 0 {
		t.Errorf("job record survived RemoveRecord: %+v", recs)
	}
	if data, err := s2.ReadRecord(KindJob, key(0)); data != nil || err != nil {
		t.Errorf("ReadRecord after removal = %q, %v; want nil, nil", data, err)
	}
	if got := s2.Stats().Checkpoints; got != 0 {
		t.Errorf("checkpoint count = %d after RemoveRecord, want 0", got)
	}
}

// TestRecordNames pins the one record-name rule: every result key and
// every fleet name is valid, and nothing that could leave its directory
// or collide with temp and quarantine files is.
func TestRecordNames(t *testing.T) {
	for _, ok := range []string{key(0), "pop-a", "a", "0", strings.Repeat("z", 64)} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "-a", "a-", "Pop", "../x", ".tmp-a", "a.b", "a_b", strings.Repeat("z", 65)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord(KindFleet, "../escape", []byte("x")); err == nil {
		t.Error("PutRecord accepted a traversing name")
	}
}

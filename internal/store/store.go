// Package store is the crash-safe persistence layer under the
// experiment service: a content-addressed blob store for completed
// result payloads plus the sidecar records (resumable job records,
// fleet registrations and legacy fleet checkpoints) that let
// `penelope serve` survive a hard kill. Sidecars share one
// record API — PutRecord, ReadRecord, Records, RemoveRecord — over the
// closed set of Kinds; each kind's bytes belong to the module that
// writes them. Every write is atomic — temp file, fsync, rename,
// directory fsync — and every result payload is framed with a
// checksum, so a torn write from a crash is detected on the next boot,
// quarantined, and re-simulated instead of served.
//
// All I/O goes through an injectable filesystem (internal/store/vfs);
// the crash-matrix suite reboots the store after a simulated crash at
// every I/O step of every write path and asserts all-or-nothing
// visibility. The result cache is the degradable class: an optional
// disk budget LRU-evicts cached results (never sidecar records),
// refusing new result writes — and reporting Degraded —
// before any record write is ever shed, and a background scrubber
// re-verifies frames on an interval, quarantining rot.
package store

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"penelope/internal/obs"
	"penelope/internal/store/vfs"
)

// resultMagic versions the on-disk result frame (vfs.Frame). Bump it
// whenever the payload layout changes shape.
const resultMagic = "penelope-store-v1\n"

// resultExt is the file extension of result payloads; sidecar records
// take theirs from their Kind.
const resultExt = ".res"

// ErrBudget reports a result write refused because the store is at its
// disk budget and eviction could not make room. Job and fleet record
// writes are never refused for budget reasons — results are shed
// first, always.
var ErrBudget = errors.New("store: result budget exhausted")

// Stats are the store counters surfaced through /metrics.
type Stats struct {
	// Entries is the number of verified result payloads on disk.
	Entries int `json:"entries"`
	// Bytes is the total payload size held (frame overhead excluded).
	Bytes int64 `json:"bytes"`
	// BudgetBytes is the configured result-cache budget (0 = none).
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// Hits counts Get calls served from disk; Misses counts Get calls
	// for keys the store does not hold.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Quarantined counts corrupt or truncated files set aside (renamed
	// to *.quarantine) at boot, on read, or by the scrubber, instead of
	// being served.
	Quarantined int `json:"quarantined"`
	// QuarantineFailures counts quarantine renames that themselves
	// failed: the corrupt file could not be set aside (it stays
	// excluded from the index either way).
	QuarantineFailures uint64 `json:"quarantine_failures"`
	// DirsyncFailures counts atomic writes whose final directory sync
	// failed: the rename landed, its durability across power loss is
	// uncertain.
	DirsyncFailures uint64 `json:"dirsync_failures"`
	// Checkpoints is the number of resumable job records on disk.
	Checkpoints int `json:"checkpoints"`
	// Fleets is the number of persisted fleet registrations on disk.
	Fleets int `json:"fleets"`

	// Evictions counts results removed by the disk budget or the
	// retention policy; EvictedBytes is their payload volume and
	// Expired the subset evicted by retention age alone.
	Evictions    uint64 `json:"evictions"`
	EvictedBytes int64  `json:"evicted_bytes"`
	Expired      uint64 `json:"expired"`
	// BudgetRefusals counts result writes refused because eviction
	// could not bring the store under budget; WriteFailures counts
	// result writes that failed in the filesystem itself.
	BudgetRefusals uint64 `json:"budget_refusals"`
	WriteFailures  uint64 `json:"write_failures"`
	// Degraded reports the store is shedding result writes; it clears
	// when a result write succeeds again.
	Degraded bool `json:"degraded"`

	// Scrub counters: completed passes, frames re-verified, and frames
	// the scrubber found rotten and quarantined.
	ScrubPasses  uint64 `json:"scrub_passes"`
	ScrubChecked uint64 `json:"scrub_checked"`
	ScrubCorrupt uint64 `json:"scrub_corrupt"`
}

// Config tunes a Store beyond its root directory.
type Config struct {
	// Dir is the store's root directory.
	Dir string
	// FS is the filesystem everything runs on; nil means the real one.
	// Tests inject a vfs.FaultFS to crash, starve and corrupt the
	// store deterministically.
	FS vfs.FS
	// Budget bounds the resident result payload bytes; past it the
	// least-recently-used results are evicted down to the low
	// watermark (7/8 of Budget), and a write that still cannot fit is
	// refused with ErrBudget. Job records and fleet sidecars are never
	// evicted and never refused. 0 means unbounded.
	Budget int64
	// Retention evicts results unused for longer than this (checked at
	// boot and on every scrub pass). 0 keeps results forever.
	Retention time.Duration
	// Instruments, when set, records operation latency/size histograms
	// and I/O spans. Nil costs nothing.
	Instruments *Instruments

	// clock overrides time.Now for in-package retention tests.
	clock func() time.Time
}

// entry is one LRU-tracked resident result.
type entry struct {
	key     string
	size    int64
	lastUse time.Time
}

// Store is a disk-backed content-addressed result store rooted at one
// data directory:
//
//	<dir>/results/<key>.res      checksum-framed result payloads
//	<dir>/checkpoints/<key>.job  resumable job records
//	<dir>/fleets/<name>.fleet    scheduled fleets: registration and epoch cursor
//	<dir>/fleets/<name>.ckpt     legacy fleet engine checkpoints, read once at boot
//
// A <dir>/checkpoints/<key>.ckpt is a lifetime job snapshot written by
// an earlier binary. Nothing reads it: an interrupted job recomputes
// from its .job record, so such a file is safe to delete.
//
// The in-memory index is rebuilt by scanning (and verifying) the
// results directory on Open, so the directory itself is the source of
// truth and a crashed process loses nothing that finished a rename.
type Store struct {
	cfg     Config
	fs      vfs.FS
	now     func() time.Time
	ins     *Instruments
	logger  *slog.Logger
	dir     string
	results string

	mu      sync.Mutex
	index   map[string]*list.Element // key -> element holding *entry
	lru     *list.List               // front = least recently used
	bytes   int64
	hits    uint64
	misses  uint64
	quarant int
	names   [numKinds]map[string]struct{} // sidecar records on disk, per kind

	degraded       bool
	evictions      uint64
	evictedBytes   int64
	expired        uint64
	budgetRefused  uint64
	writeFailures  uint64
	quarantFail    uint64
	dirsyncFail    uint64
	scrubPasses    uint64
	scrubChecked   uint64
	scrubCorrupt   uint64
	loggedQuarFail bool
	loggedDirsync  bool
	loggedBudget   bool

	scrubStop chan struct{}
	scrubDone chan struct{}
	closeOnce sync.Once
}

// Open creates the store layout under dir with default configuration.
func Open(dir string) (*Store, error) {
	return OpenConfig(Config{Dir: dir})
}

// OpenConfig creates the store layout under cfg.Dir (making the
// directories if needed) and rebuilds the index by scanning and
// verifying every result file. Corrupt or truncated entries — a torn
// write from a crash, a flipped bit — are renamed to *.quarantine and
// logged; boot continues without them. Leftover temp files from
// interrupted writes are removed, and the retention policy and disk
// budget are enforced before the store is handed out, so a crash
// mid-eviction cannot leave the store over budget.
func OpenConfig(cfg Config) (*Store, error) {
	s := &Store{
		cfg:     cfg,
		fs:      cfg.FS,
		now:     cfg.clock,
		ins:     cfg.Instruments,
		logger:  obs.Logger("store"),
		dir:     cfg.Dir,
		results: filepath.Join(cfg.Dir, "results"),
		index:   make(map[string]*list.Element),
		lru:     list.New(),
	}
	if s.fs == nil {
		s.fs = vfs.OS{}
	}
	if s.now == nil {
		s.now = time.Now
	}
	for k := range s.names {
		s.names[k] = make(map[string]struct{})
	}
	sidecarDirs := []string{filepath.Join(s.dir, "checkpoints"), filepath.Join(s.dir, "fleets")}
	for _, d := range append([]string{s.results}, sidecarDirs...) {
		if err := s.fs.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
	}
	entries, err := s.fs.ReadDir(s.results)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", s.results, err)
	}
	var found []entry
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(s.results, name)
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			s.fs.Remove(path) // interrupted write, never renamed in
		case strings.HasSuffix(name, resultExt):
			key := strings.TrimSuffix(name, resultExt)
			payload, err := vfs.ReadFrame(s.fs, path, resultMagic)
			if err != nil || !ValidKey(key) {
				s.quarantineLocked(path, err)
				continue
			}
			mtime := s.now()
			if info, err := e.Info(); err == nil {
				mtime = info.ModTime()
			}
			found = append(found, entry{key, int64(len(payload)), mtime})
		}
	}
	// Rebuild the LRU in last-use order (mtime ascending): the oldest
	// results of the previous process are the first evicted by this
	// one.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].lastUse.Equal(found[j].lastUse) {
			return found[i].lastUse.Before(found[j].lastUse)
		}
		return found[i].key < found[j].key
	})
	for i := range found {
		s.index[found[i].key] = s.lru.PushBack(&found[i])
		s.bytes += found[i].size
	}
	s.enforceRetentionLocked()
	if s.cfg.Budget > 0 && s.bytes > s.cfg.Budget {
		s.shedLocked(s.lowWater(), "")
	}

	for _, scan := range sidecarDirs {
		files, err := s.fs.ReadDir(scan)
		if err != nil {
			return nil, fmt.Errorf("store: scanning %s: %w", scan, err)
		}
		for _, e := range files {
			name := e.Name()
			if strings.HasPrefix(name, ".tmp-") {
				s.fs.Remove(filepath.Join(scan, name))
				continue
			}
			for k, kd := range kinds {
				if base, ok := strings.CutSuffix(name, kd.ext); ok && filepath.Base(scan) == kd.dir && ValidName(base) {
					s.names[k][base] = struct{}{}
				}
			}
		}
	}
	return s, nil
}

// Close stops the background scrubber, if one was started. Idempotent;
// the store's data methods stay usable after Close.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.scrubStop != nil {
			close(s.scrubStop)
			<-s.scrubDone
		}
	})
}

// lowWater is the eviction target under budget pressure: 7/8 of the
// budget, so one eviction pass buys headroom instead of thrashing at
// the boundary.
func (s *Store) lowWater() int64 {
	return s.cfg.Budget - s.cfg.Budget/8
}

// ValidKey reports whether key is a plausible content address: short
// lowercase hex, so a key can never traverse out of the store
// directory or collide with the store's own temp/quarantine names.
func ValidKey(key string) bool {
	return len(key) >= 8 && len(key) <= 64 && strings.Trim(key, "0123456789abcdef") == ""
}

// frames holds the buffers Put frames payloads in: a frame lives only
// until its file is written, so one buffer serves write after write.
var frames = sync.Pool{New: func() any { return new([]byte) }}

// Put durably persists payload under key: checksum-framed temp file,
// fsync, rename, directory fsync. After Put returns, a crash at any
// point leaves either the previous state or the complete new entry —
// never a half-written file under the final name. Under a disk budget
// Put first evicts least-recently-used results to make room and
// refuses with ErrBudget when it cannot — shedding the result cache
// before any record write is ever at risk.
func (s *Store) Put(key string, payload []byte) (err error) {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid result key %q", key)
	}
	start := time.Now()
	defer func() { s.ins.observePut(key, start, len(payload), err) }()
	size := int64(len(payload))
	s.mu.Lock()
	if s.cfg.Budget > 0 {
		var existing int64
		if el, ok := s.index[key]; ok {
			existing = el.Value.(*entry).size
		}
		if s.bytes-existing+size > s.cfg.Budget {
			s.shedLocked(s.lowWater()-(size-existing), key)
		}
		if s.bytes-existing+size > s.cfg.Budget {
			s.budgetRefused++
			s.degraded = true
			if !s.loggedBudget {
				s.loggedBudget = true
				s.logger.Warn("shedding result writes: payload will not fit the budget (logged once)",
					"key", key, "bytes", size, "budget_bytes", s.cfg.Budget)
			}
			s.mu.Unlock()
			return fmt.Errorf("store: %d-byte result %s over budget %d: %w", size, key, s.cfg.Budget, ErrBudget)
		}
	}
	s.mu.Unlock()

	frame := frames.Get().(*[]byte)
	*frame = vfs.AppendFrame((*frame)[:0], resultMagic, payload)
	final := filepath.Join(s.results, key+resultExt)
	synced, err := vfs.WriteAtomic(s.fs, final, *frame)
	frames.Put(frame)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteDirsyncLocked(synced, err)
	if err != nil {
		s.writeFailures++
		s.degraded = true
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if el, ok := s.index[key]; ok {
		old := el.Value.(*entry)
		s.bytes -= old.size
		old.size = size
		old.lastUse = s.now()
		s.lru.MoveToBack(el)
	} else {
		s.index[key] = s.lru.PushBack(&entry{key, size, s.now()})
	}
	s.bytes += size
	s.degraded = false
	return nil
}

// Get reads and verifies the payload stored under key. A file that
// fails verification is quarantined and reported as a miss, so a
// corrupt entry is re-simulated rather than served.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	_, ok := s.index[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()
	start := time.Now()
	path := filepath.Join(s.results, key+resultExt)
	payload, err := vfs.ReadFrame(s.fs, path, resultMagic)
	s.ins.observeGet(key, start, len(payload), err == nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if err != nil {
		if ok {
			// Not re-verified concurrently: quarantine and drop.
			s.quarantineLocked(path, err)
			s.dropLocked(el)
		}
		s.misses++
		return nil, false
	}
	if ok {
		el.Value.(*entry).lastUse = s.now()
		s.lru.MoveToBack(el)
	}
	s.hits++
	return payload, true
}

// Has reports whether key is indexed, without reading the payload.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Degraded reports whether the store is currently shedding result
// writes (budget refusals or filesystem write failures); it recovers
// when a result write succeeds again.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// dropLocked removes an entry from the index without touching disk.
func (s *Store) dropLocked(el *list.Element) {
	ent := el.Value.(*entry)
	s.bytes -= ent.size
	s.lru.Remove(el)
	delete(s.index, ent.key)
}

// evictLocked removes one result from index and disk. A failed disk
// remove still drops the entry — the orphaned file is re-indexed (or
// re-evicted) at the next boot, and accounting stays truthful about
// what this process will serve.
func (s *Store) evictLocked(el *list.Element, expired bool) {
	ent := el.Value.(*entry)
	s.evictions++
	s.evictedBytes += ent.size
	if expired {
		s.expired++
	}
	s.dropLocked(el)
	s.fs.Remove(filepath.Join(s.results, ent.key+resultExt))
}

// shedLocked evicts least-recently-used results until the resident
// bytes drop to target. exclude (the key being written) is never
// evicted; job records and fleet sidecars live outside this index and
// are untouchable by construction.
func (s *Store) shedLocked(target int64, exclude string) {
	for el := s.lru.Front(); el != nil && s.bytes > target; {
		next := el.Next()
		if el.Value.(*entry).key != exclude {
			s.evictLocked(el, false)
		}
		el = next
	}
}

// enforceRetentionLocked evicts results unused for longer than the
// retention window.
func (s *Store) enforceRetentionLocked() {
	if s.cfg.Retention <= 0 {
		return
	}
	cutoff := s.now().Add(-s.cfg.Retention)
	for el := s.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).lastUse.Before(cutoff) {
			s.evictLocked(el, true)
		}
		el = next
	}
}

// ScrubReport is one scrub pass's outcome.
type ScrubReport struct {
	Checked int // frames re-read and verified
	Corrupt int // frames quarantined (bit rot, truncation)
	Expired int // results evicted by the retention policy
}

// Scrub re-verifies every resident result frame against its checksum,
// quarantining any that rotted since the boot scan, and enforces the
// retention policy and disk budget. The background scrubber calls it on
// an interval; tests and operators can call it directly.
func (s *Store) Scrub() ScrubReport {
	start := time.Now()
	var rep ScrubReport
	defer func() { s.ins.observeScrub(start, rep) }()
	s.mu.Lock()
	expiredBefore := s.expired
	s.enforceRetentionLocked()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		path := filepath.Join(s.results, key+resultExt)
		_, err := vfs.ReadFrame(s.fs, path, resultMagic)
		s.mu.Lock()
		el, ok := s.index[key]
		if !ok {
			// Evicted or replaced while we read it; not ours to judge.
			s.mu.Unlock()
			continue
		}
		if err != nil {
			s.quarantineLocked(path, err)
			s.dropLocked(el)
			s.scrubCorrupt++
			rep.Corrupt++
		} else {
			s.scrubChecked++
			rep.Checked++
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	if s.cfg.Budget > 0 && s.bytes > s.cfg.Budget {
		s.shedLocked(s.lowWater(), "")
	}
	s.scrubPasses++
	rep.Expired = int(s.expired - expiredBefore)
	s.mu.Unlock()
	return rep
}

// StartScrubber launches the background scrubber goroutine, running
// one Scrub pass every interval until Close. No-op for interval <= 0
// or if already started.
func (s *Store) StartScrubber(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.mu.Lock()
	if s.scrubStop != nil {
		s.mu.Unlock()
		return
	}
	s.scrubStop = make(chan struct{})
	s.scrubDone = make(chan struct{})
	s.mu.Unlock()
	go func() {
		defer close(s.scrubDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Scrub()
			case <-s.scrubStop:
				return
			}
		}
	}()
}

// Kind is one class of sidecar record. The set is closed: each kind
// owns one directory and one file extension (the kinds table), in the
// layout every earlier version of the store wrote.
type Kind uint8

const (
	KindJob             Kind = iota // a resumable job's resubmission record
	KindFleet                       // a scheduled fleet's registration and epoch cursor
	KindFleetCheckpoint             // a legacy fleet engine checkpoint, migrated once at boot
	numKinds
)

// kinds maps each Kind to its directory, extension and log label.
var kinds = [numKinds]struct{ dir, ext, label string }{
	KindJob:             {"checkpoints", ".job", "job record"},
	KindFleet:           {"fleets", ".fleet", "fleet registration"},
	KindFleetCheckpoint: {"fleets", ".ckpt", "fleet checkpoint"},
}

// ValidName reports whether name is safe as a record name: 1-64
// lowercase alphanumerics with interior dashes, so a record can never
// traverse out of its directory or collide with the store's own
// temp/quarantine names. Result keys and fleet names both satisfy it.
func ValidName(name string) bool {
	return len(name) >= 1 && len(name) <= 64 && name[0] != '-' && name[len(name)-1] != '-' &&
		strings.Trim(name, "0123456789abcdefghijklmnopqrstuvwxyz-") == ""
}

// Record is one sidecar record: its name and its bytes, which the
// store never interprets.
type Record struct {
	Name string
	Data []byte
}

// recordPath returns where the record of kind k under name lives.
func (s *Store) recordPath(k Kind, name string) (string, error) {
	if !ValidName(name) {
		return "", fmt.Errorf("store: invalid %s name %q", kinds[k].label, name)
	}
	return filepath.Join(s.dir, kinds[k].dir, name+kinds[k].ext), nil
}

// PutRecord durably replaces the record of kind k under name: temp
// file, fsync, rename, directory fsync, like a result Put and without
// holding the index lock across the I/O. Records are never shed by the
// disk budget.
func (s *Store) PutRecord(k Kind, name string, data []byte) error {
	path, err := s.recordPath(k, name)
	if err != nil {
		return err
	}
	synced, err := vfs.WriteAtomic(s.fs, path, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteDirsyncLocked(synced, err)
	if err != nil {
		return fmt.Errorf("store: writing %s %s: %w", kinds[k].label, name, err)
	}
	s.names[k][name] = struct{}{}
	return nil
}

// ReadRecord returns the record of kind k under name, or nil if none
// has been written.
func (s *Store) ReadRecord(k Kind, name string) ([]byte, error) {
	path, err := s.recordPath(k, name)
	if err != nil {
		return nil, err
	}
	data, err := s.fs.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// Records lists every record of kind k, sorted by name. A record whose
// name is invalid, whose bytes cannot be read, or that check rejects is
// quarantined and skipped, so one corrupt sidecar never blocks boot
// recovery of the others. A nil check accepts every readable record.
func (s *Store) Records(k Kind, check func(Record) error) []Record {
	dir := filepath.Join(s.dir, kinds[k].dir)
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []Record
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), kinds[k].ext)
		if !ok || strings.HasPrefix(name, ".tmp-") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		rec := Record{Name: name}
		rec.Data, err = s.fs.ReadFile(path)
		if err == nil && !ValidName(name) {
			err = fmt.Errorf("store: invalid %s name %q", kinds[k].label, name)
		}
		if err == nil && check != nil {
			err = check(rec)
		}
		if err != nil {
			s.quarantineRecord(k, name, path, err)
			continue
		}
		out = append(out, rec)
	}
	return out
}

// QuarantineRecord sets the record of kind k under name aside as
// corrupt, the way Records sets aside a record its check rejects: it
// is renamed to *.quarantine, counted, and never read under that name
// again. Callers use it for records whose bytes only they can judge.
func (s *Store) QuarantineRecord(k Kind, name string, cause error) {
	if path, err := s.recordPath(k, name); err == nil {
		s.quarantineRecord(k, name, path, cause)
	}
}

// quarantineRecord quarantines the record file at path and drops name
// from the kind's index.
func (s *Store) quarantineRecord(k Kind, name, path string, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantineLocked(path, cause)
	delete(s.names[k], name)
}

// RemoveRecord deletes the record of kind k under name, with any temp
// file an interrupted write of it left behind.
func (s *Store) RemoveRecord(k Kind, name string) {
	path, err := s.recordPath(k, name)
	if err != nil {
		return
	}
	s.fs.Remove(path)
	s.fs.Remove(vfs.TempName(path))
	s.mu.Lock()
	delete(s.names[k], name)
	s.mu.Unlock()
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:            len(s.index),
		Bytes:              s.bytes,
		BudgetBytes:        s.cfg.Budget,
		Hits:               s.hits,
		Misses:             s.misses,
		Quarantined:        s.quarant,
		QuarantineFailures: s.quarantFail,
		DirsyncFailures:    s.dirsyncFail,
		Checkpoints:        len(s.names[KindJob]),
		Fleets:             len(s.names[KindFleet]),
		Evictions:          s.evictions,
		EvictedBytes:       s.evictedBytes,
		Expired:            s.expired,
		BudgetRefusals:     s.budgetRefused,
		WriteFailures:      s.writeFailures,
		Degraded:           s.degraded,
		ScrubPasses:        s.scrubPasses,
		ScrubChecked:       s.scrubChecked,
		ScrubCorrupt:       s.scrubCorrupt,
	}
}

// noteDirsyncLocked counts a failed directory sync behind a successful
// atomic write, logging the first one. Callers hold s.mu.
func (s *Store) noteDirsyncLocked(synced bool, writeErr error) {
	if synced || writeErr != nil {
		return
	}
	s.dirsyncFail++
	if !s.loggedDirsync {
		s.loggedDirsync = true
		s.logger.Warn("directory sync failed after rename; rename durability uncertain (counted; logged once)")
	}
}

// quarantineLocked sets a bad file aside under a .quarantine suffix so
// it stops being scanned but stays inspectable. A failed quarantine
// rename is counted (and logged once) — the entry is excluded from the
// index either way, so the corruption is still never served. Callers
// hold s.mu.
func (s *Store) quarantineLocked(path string, cause error) {
	s.quarant++
	s.logger.Warn("quarantining corrupt file", "path", path, "cause", cause)
	if err := s.fs.Rename(path, path+".quarantine"); err != nil {
		s.quarantFail++
		if !s.loggedQuarFail {
			s.loggedQuarFail = true
			s.logger.Error("quarantine rename failed (counted; logged once)", "error", err)
		}
	}
}

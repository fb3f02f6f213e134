package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"penelope/internal/mix"
)

// Op identifies one fallible filesystem call in a FaultFS log.
type Op string

const (
	OpMkdirAll Op = "mkdirall"
	OpOpen     Op = "open"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpReadDir  Op = "readdir"
	OpReadFile Op = "readfile"
	OpSyncDir  Op = "syncdir"
)

// Record is one logged I/O step.
type Record struct {
	Step int
	Op   Op
	Path string
	Dest string // rename destination
	N    int    // bytes, for writes
}

// Injected fault errors. ErrCrashed is what every operation returns
// once the tree is frozen; ErrNoSpace and ErrIO model the two disk
// failures the paper-style adversary cares about.
var (
	ErrCrashed = errors.New("vfs: simulated crash (tree frozen)")
	ErrNoSpace = errors.New("vfs: injected fault: no space left on device")
	ErrIO      = errors.New("vfs: injected fault: input/output error")
)

// fault is the scripted behaviour of one step.
type fault struct {
	err   error // fail the op with this error
	keep  int   // for writes: bytes actually applied before the fault
	torn  bool  // keep is meaningful (0 is a valid prefix)
	crash bool  // freeze the tree at this step
}

// FaultFS wraps an inner FS with deterministic fault injection. Every
// call — including the Write/Sync/Close of files it opened — is one
// numbered I/O step, logged in order. Faults are scripted per step
// (FailAt, ShortWriteAt, CrashAt) or drawn from a seeded schedule
// (SeedFaults); either way the same plan replays the same behaviour,
// so crash-matrix suites enumerate steps instead of sampling them.
//
// A crash freezes the tree: the faulted step is not executed (a torn
// write applies its prefix first) and every later operation fails with
// ErrCrashed. The inner filesystem then holds the exact state a power
// loss at that step would leave behind, ready to be rebooted.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	step    int
	faults  map[int]fault
	crashed bool
	log     []Record

	seed     uint64
	rate     float64
	seeded   bool
	injected int
}

// NewFaultFS wraps inner (nil means the real filesystem).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS{}
	}
	return &FaultFS{inner: inner, faults: make(map[int]fault)}
}

// FailAt makes the op at step fail with err without executing it.
func (f *FaultFS) FailAt(step int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[step] = fault{err: err}
}

// ShortWriteAt makes the write at step apply only keep bytes and fail
// with ErrNoSpace — a torn write from a full disk.
func (f *FaultFS) ShortWriteAt(step, keep int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[step] = fault{err: ErrNoSpace, keep: keep, torn: true}
}

// CrashAt freezes the tree at step: that op never executes and every
// later op fails with ErrCrashed.
func (f *FaultFS) CrashAt(step int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[step] = fault{err: ErrCrashed, crash: true}
}

// CrashAtWrite freezes the tree at step, first applying keep bytes if
// that step is a write — power loss mid-write, leaving a torn prefix.
func (f *FaultFS) CrashAtWrite(step, keep int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[step] = fault{err: ErrCrashed, keep: keep, torn: true, crash: true}
}

// SeedFaults arms a deterministic probabilistic schedule: the op at
// step s fails with ErrNoSpace or ErrIO when the mix.SplitMix64 draw keyed
// (seed, s) lands under rate. Scripted faults take precedence.
func (f *FaultFS) SeedFaults(seed uint64, rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seed, f.rate, f.seeded = seed, rate, true
}

// Steps returns how many I/O steps have executed so far; a fault-free
// rehearsal run uses it to size the crash matrix.
func (f *FaultFS) Steps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step
}

// Injected returns how many faults fired (scripted or seeded).
func (f *FaultFS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Crashed reports whether the tree is frozen.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Log returns a copy of the op log, in execution order.
func (f *FaultFS) Log() []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Record, len(f.log))
	copy(out, f.log)
	return out
}

// begin numbers, logs and adjudicates one step. Callers hold f.mu.
func (f *FaultFS) begin(op Op, path, dest string, n int) (fault, error) {
	if f.crashed {
		return fault{}, ErrCrashed
	}
	s := f.step
	f.step++
	f.log = append(f.log, Record{Step: s, Op: op, Path: path, Dest: dest, N: n})
	ft, ok := f.faults[s]
	if !ok && f.seeded {
		draw := mix.SplitMix64(f.seed + uint64(s))
		if mix.Float64(draw) < f.rate {
			err := ErrNoSpace
			if draw&1 == 1 {
				err = ErrIO
			}
			ft, ok = fault{err: err}, true
		}
	}
	if !ok {
		return fault{}, nil
	}
	f.injected++
	if ft.crash {
		f.crashed = true
	}
	return ft, ft.err
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.begin(OpMkdirAll, path, "", 0); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.begin(OpOpen, name, "", 0); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, name: name}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.begin(OpReadFile, name, "", 0); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.begin(OpRename, oldpath, newpath, 0); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.begin(OpRemove, name, "", 0); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.begin(OpReadDir, name, "", 0); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) SyncDir(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.begin(OpSyncDir, name, "", 0); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

// faultFile threads a file's Write/Sync/Close back through the
// injector's step counter.
type faultFile struct {
	fs    *FaultFS
	inner File
	name  string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	ft, err := ff.fs.begin(OpWrite, ff.name, "", len(p))
	if err != nil {
		if ft.torn && ft.keep > 0 && ft.keep < len(p) {
			// Torn write: the prefix lands, then the fault (or the
			// crash) cuts it short.
			ff.inner.Write(p[:ft.keep])
		}
		if ff.fs.crashed {
			ff.inner.Close() // release the fd; the tree is frozen anyway
		}
		return 0, err
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if _, err := ff.fs.begin(OpSync, ff.name, "", 0); err != nil {
		if ff.fs.crashed {
			ff.inner.Close()
		}
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if _, err := ff.fs.begin(OpClose, ff.name, "", 0); err != nil {
		ff.inner.Close()
		return err
	}
	return ff.inner.Close()
}

// String renders a record for test failure messages.
func (r Record) String() string {
	if r.Op == OpRename {
		return fmt.Sprintf("#%d %s %s -> %s", r.Step, r.Op, r.Path, r.Dest)
	}
	return fmt.Sprintf("#%d %s %s", r.Step, r.Op, r.Path)
}

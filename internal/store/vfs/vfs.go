// Package vfs is the injectable filesystem under all of Penelope's
// persistence: the store (results, job records and fleet records) and
// the metric-history blocks perform every file operation through the
// FS interface instead of calling os.* directly. Production code runs on OS (a thin
// passthrough); tests run on FaultFS, which can fail any call with
// ENOSPC/EIO, truncate a write at byte k, or snapshot-freeze the tree
// at any I/O step to simulate a crash between two syscalls — the
// substrate of the crash-matrix suites that prove every write path is
// all-or-nothing.
package vfs

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// File is the writable handle surface the persistence layer needs.
// Sync must not return until the file's bytes are durable.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the filesystem surface the persistence layer needs. Every
// method maps one-to-one onto an os.* call, so the fault injector can
// meaningfully speak of "the I/O step between the write and the
// rename".
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory so a preceding rename or remove in it
	// is durable. Filesystems that cannot sync directories report an
	// error; callers decide whether that is fatal.
	SyncDir(name string) error
}

// OS is the real filesystem.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// TempName returns the temp-file name WriteAtomic uses for path. The
// ".tmp-" prefix is the layer-wide convention: boot scans remove such
// leftovers, and name validators reject keys that could collide.
func TempName(path string) string {
	return filepath.Join(filepath.Dir(path), ".tmp-"+filepath.Base(path))
}

// WriteAtomic replaces path with data under the durability discipline
// every persistent artifact uses: temp file in the same directory,
// write, fsync, close, rename into place, directory fsync. After it
// returns nil, a crash at any point leaves either the previous bytes or
// the complete new bytes under path — never a torn file. The returned
// dirSynced is false when everything landed but the directory sync
// failed: the rename is applied, its durability across power loss is
// uncertain, and callers that care count it.
func WriteAtomic(fsys FS, path string, data []byte) (dirSynced bool, err error) {
	dir := filepath.Dir(path)
	tmp := TempName(path)
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return false, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return false, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return false, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return false, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return false, err
	}
	return fsys.SyncDir(dir) == nil, nil
}

// VerifyDiscipline checks a fault-free FaultFS op log against the
// atomic-write contract: every rename whose source is a ".tmp-" file
// must see that file Synced after its last Write and Closed before the
// Rename, and the destination directory SyncDir'd at some later step.
// It is the regression net for "forgot the fsync" bugs — a write path
// that skips a sync still passes a crash matrix run on a real
// directory (already-executed writes are durable there), but it cannot
// pass this check.
func VerifyDiscipline(log []Record) error {
	for i, r := range log {
		if r.Op != OpRename || !strings.HasPrefix(filepath.Base(r.Path), ".tmp-") {
			continue
		}
		lastWrite, lastSync, lastClose := -1, -1, -1
		for j := 0; j < i; j++ {
			if log[j].Path != r.Path {
				continue
			}
			switch log[j].Op {
			case OpWrite:
				lastWrite = j
			case OpSync:
				lastSync = j
			case OpClose:
				lastClose = j
			}
		}
		if lastSync < lastWrite {
			return fmt.Errorf("vfs: step %d renames %s with unsynced writes (last write step %d, last sync step %d)",
				r.Step, r.Path, lastWrite, lastSync)
		}
		if lastClose < lastSync {
			return fmt.Errorf("vfs: step %d renames %s before closing it", r.Step, r.Path)
		}
		dir := filepath.Dir(r.Dest)
		synced := false
		for j := i + 1; j < len(log); j++ {
			if log[j].Op == OpSyncDir && log[j].Path == dir {
				synced = true
				break
			}
		}
		if !synced {
			return fmt.Errorf("vfs: rename at step %d into %s is never followed by a directory sync", r.Step, dir)
		}
	}
	return nil
}

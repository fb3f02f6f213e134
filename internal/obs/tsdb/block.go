package tsdb

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"penelope/internal/store/vfs"
)

// Block file format. A block is an immutable flush of every series'
// unpersisted raw samples, written once through vfs.WriteAtomic and
// never modified. It is a vfs.Frame under blockMagic whose payload is
// a uvarint series count, then per series: uvarint name length, name
// bytes, uvarint chunk length, chunk (see encode.go).
//
// File names are block-<mints>-<seq>.tsb where <mints> is the block's
// minimum sample timestamp (unix milliseconds, zero-padded) and <seq> a
// monotonic sequence number, so a lexical directory sort is a time
// sort and replaying blocks in name order replays every series' samples
// in time order.
const blockMagic = "penelope-tsdb-v1\n"

const (
	blockPrefix  = "block-"
	blockSuffix  = ".tsb"
	quarantineSx = ".quarantine"
)

func blockName(minT int64, seq int) string {
	return fmt.Sprintf("%s%013d-%06d%s", blockPrefix, minT, seq, blockSuffix)
}

// flushLocked writes every series' samples newer than its flush
// watermark into one block. A failed write counts a flush failure and
// leaves the watermarks untouched, so the samples ride along into the
// next attempt. Callers hold db.mu.
func (db *DB) flushLocked(now int64) {
	payload := db.encBuf[:0]
	var (
		flushed []*series
		marks   []int64
		nSeries uint64
		minT    int64 = 1<<63 - 1
		maxT    int64
		pts     []point
		body    []byte
	)
	// Series count is a varint prefix, so build the bodies first.
	for _, s := range db.sortedSeries() {
		pts = pts[:0]
		for i := 0; i < s.raw.Len(); i++ {
			p := s.raw.At(i)
			if p.t > s.flushedT {
				pts = append(pts, p)
			}
		}
		if len(pts) == 0 {
			continue
		}
		if pts[0].t < minT {
			minT = pts[0].t
		}
		if last := pts[len(pts)-1].t; last > maxT {
			maxT = last
		}
		chunk := appendChunk(nil, pts)
		body = appendUvarint(body, uint64(len(s.name)))
		body = append(body, s.name...)
		body = appendUvarint(body, uint64(len(chunk)))
		body = append(body, chunk...)
		flushed = append(flushed, s)
		marks = append(marks, pts[len(pts)-1].t)
		nSeries++
	}
	if nSeries == 0 {
		return
	}
	payload = appendUvarint(payload, nSeries)
	payload = append(payload, body...)
	db.encBuf = payload[:0]

	db.blockSeq++
	name := blockName(minT, db.blockSeq)
	path := filepath.Join(db.cfg.Dir, name)
	framed := vfs.Frame(blockMagic, payload)
	if _, err := vfs.WriteAtomic(db.cfg.fs, path, framed); err != nil {
		db.nFlushFail.Add(1)
		db.logger.Warn("tsdb: block flush failed", "block", name, "err", err)
		return
	}
	for i, s := range flushed {
		s.flushedT = marks[i]
	}
	db.blocks = append(db.blocks, blockInfo{name: name, size: int64(len(framed)), minT: minT, maxT: maxT})
	db.nWritten.Add(1)
	db.updateBlockGauges()
	db.enforceLimits(now)
}

// sortedSeries returns the series in name order (stable across
// restarts, since block replay recreates them in flush order).
func (db *DB) sortedSeries() []*series {
	out := make([]*series, len(db.order))
	copy(out, db.order)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// enforceLimits deletes the oldest blocks past retention, always
// keeping the newest. Callers hold db.mu.
func (db *DB) enforceLimits(now int64) {
	cutoff := now - db.cfg.Retention.Milliseconds()
	for len(db.blocks) > 1 && db.blocks[0].maxT < cutoff {
		oldest := db.blocks[0]
		if err := db.cfg.fs.Remove(filepath.Join(db.cfg.Dir, oldest.name)); err != nil {
			db.logger.Warn("tsdb: block delete failed", "block", oldest.name, "err", err)
			break
		}
		db.cfg.fs.SyncDir(db.cfg.Dir)
		db.blocks = db.blocks[1:]
		db.nDeleted.Add(1)
	}
	db.updateBlockGauges()
}

func (db *DB) updateBlockGauges() {
	total := int64(0)
	for _, b := range db.blocks {
		total += b.size
	}
	db.nBlocks.Store(int64(len(db.blocks)))
	db.nBlockBytes.Store(total)
}

// loadBlocks runs at Open: sweep temp leftovers, load every block in
// name (= time) order replaying its samples through the same push path
// live sampling uses, quarantine anything torn or corrupt, then apply
// retention. After it returns, rings and tiers match a process that
// never restarted.
func (db *DB) loadBlocks() error {
	fsys := db.cfg.fs
	if err := fsys.MkdirAll(db.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("tsdb: create dir: %w", err)
	}
	ents, err := fsys.ReadDir(db.cfg.Dir)
	if err != nil {
		return fmt.Errorf("tsdb: read dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			fsys.Remove(filepath.Join(db.cfg.Dir, name))
		case strings.HasPrefix(name, blockPrefix) && strings.HasSuffix(name, blockSuffix):
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(db.cfg.Dir, name)
		info, err := db.loadOneBlock(path)
		if err != nil {
			db.quarantine(path, err)
			continue
		}
		info.name = name
		db.blocks = append(db.blocks, info)
		db.nLoaded.Add(1)
		if db.lastSampleT < info.maxT {
			db.lastSampleT = info.maxT
		}
		if seq, ok := blockSeqOf(name); ok && seq > db.blockSeq {
			db.blockSeq = seq
		}
	}
	db.updateBlockGauges()
	db.enforceLimits(db.cfg.clock().UnixMilli())
	return nil
}

// loadOneBlock parses and replays one block file.
func (db *DB) loadOneBlock(path string) (blockInfo, error) {
	data, err := db.cfg.fs.ReadFile(path)
	if err != nil {
		return blockInfo{}, err
	}
	payload, err := vfs.Unframe(blockMagic, data)
	if err != nil {
		return blockInfo{}, fmt.Errorf("tsdb: %w", err)
	}
	info := blockInfo{size: int64(len(data)), minT: 1<<63 - 1}
	nSeries, k := binary.Uvarint(payload)
	if k <= 0 {
		return blockInfo{}, fmt.Errorf("tsdb: truncated series count")
	}
	payload = payload[k:]
	for i := uint64(0); i < nSeries; i++ {
		nameLen, k := binary.Uvarint(payload)
		if k <= 0 || uint64(len(payload)-k) < nameLen {
			return blockInfo{}, fmt.Errorf("tsdb: truncated series name")
		}
		name := string(payload[k : k+int(nameLen)])
		payload = payload[k+int(nameLen):]
		chunkLen, k := binary.Uvarint(payload)
		if k <= 0 || uint64(len(payload)-k) < chunkLen {
			return blockInfo{}, fmt.Errorf("tsdb: truncated chunk for %s", name)
		}
		chunk := payload[k : k+int(chunkLen)]
		payload = payload[k+int(chunkLen):]
		s := db.getSeries(name)
		rest, err := decodeChunk(chunk, func(t int64, v float64) {
			db.push(s, t, v)
			if t < info.minT {
				info.minT = t
			}
			if t > info.maxT {
				info.maxT = t
			}
			if t > s.flushedT {
				s.flushedT = t
			}
		})
		if err != nil {
			return blockInfo{}, err
		}
		if len(rest) != 0 {
			return blockInfo{}, fmt.Errorf("tsdb: %d trailing bytes after chunk for %s", len(rest), name)
		}
	}
	if len(payload) != 0 {
		return blockInfo{}, fmt.Errorf("tsdb: %d trailing bytes after last series", len(payload))
	}
	return info, nil
}

// quarantine renames a corrupt block aside so it is never loaded again
// but stays available for forensics.
func (db *DB) quarantine(path string, cause error) {
	db.nQuarantined.Add(1)
	db.logger.Warn("tsdb: quarantining corrupt block", "block", filepath.Base(path), "err", cause)
	if err := db.cfg.fs.Rename(path, path+quarantineSx); err != nil {
		db.logger.Warn("tsdb: quarantine rename failed", "block", filepath.Base(path), "err", err)
		return
	}
	db.cfg.fs.SyncDir(db.cfg.Dir)
}

// scrubLocked re-reads and re-verifies every tracked block, moving any
// that fail the checksum into quarantine. Callers hold db.mu.
func (db *DB) scrubLocked() {
	kept := db.blocks[:0]
	for _, b := range db.blocks {
		path := filepath.Join(db.cfg.Dir, b.name)
		if _, err := vfs.ReadFrame(db.cfg.fs, path, blockMagic); err != nil {
			db.quarantine(path, err)
			continue
		}
		kept = append(kept, b)
	}
	db.blocks = kept
	db.nScrubs.Add(1)
	db.updateBlockGauges()
}

// blockSeqOf extracts the sequence number from a block file name.
func blockSeqOf(name string) (int, bool) {
	base := strings.TrimSuffix(strings.TrimPrefix(name, blockPrefix), blockSuffix)
	i := strings.LastIndexByte(base, '-')
	if i < 0 {
		return 0, false
	}
	seq := 0
	for _, c := range base[i+1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return seq, true
}

// Package tsdb is the embedded metric-history store: it samples an
// obs.Registry on a fixed cadence into per-series in-memory rings,
// downsamples raw points into 10x and 100x aggregate tiers so a week of
// history stays bounded, and (when given a directory) flushes immutable
// delta-of-delta/varint-encoded blocks through vfs.WriteAtomic so the
// history survives restarts under the same crash discipline as the
// result store.
//
// Every registered family flattens into named float64 series:
//
//	counter/gauge f            → "f"
//	histogram h                → "h#count", "h#sum", "h#b<i>" (cumulative
//	                             count at the i-th finite bound)
//	vec cell v{label="x"}      → "v{x}#count", "v{x}#sum", "v{x}#b<i>"
//
// The flat names are what blocks persist and what the SLO engine's
// window reductions address; the query layer reassembles histogram
// cells from them for quantile estimation.
package tsdb

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"penelope/internal/obs"
	"penelope/internal/store/vfs"
)

// Config tunes a DB.
type Config struct {
	// Registry is the metric registry to sample. Required.
	Registry *obs.Registry
	// Interval is the sampling cadence the tiers are derived from:
	// tier 1 aggregates 10 intervals per point, tier 2 aggregates 100
	// (default 10s). The caller owns the ticker; Interval only shapes
	// the downsampling windows.
	Interval time.Duration
	// Retention bounds how far back persisted blocks are kept; older
	// blocks are deleted at boot and after each flush (default 168h).
	Retention time.Duration
	// Dir enables persistence: immutable blocks land here through
	// vfs.WriteAtomic. Empty keeps the history memory-only.
	Dir string
	// ScrubInterval re-verifies every block checksum in the background
	// of the sampling loop, quarantining bit rot (0 disables).
	ScrubInterval time.Duration

	// In-package test seams; a zero value takes the production default.
	rawPoints  int              // raw ring per series (defaultRawPoints)
	flushEvery int              // samples between block flushes (30); Close always flushes the tail
	fs         vfs.FS           // filesystem blocks are written through (vfs.OS)
	clock      func() time.Time // time for retention decisions at boot; sampling is driven by Sample(now)
}

// defaultRawPoints sizes the raw ring per series; the 10x tier holds
// the same count and the 100x tier twice that, so coverage stretches
// 200 × 360 intervals: at a 10s interval, 1h raw, 10h mid and 200h
// coarse.
const defaultRawPoints = 360

// point is one raw sample.
type point struct {
	t int64 // unix milliseconds
	v float64
}

// aggPoint is one downsampled window: min/max/sum/count describe the
// raw points that fell in the window, last carries the final value so
// counter rates and cumulative bucket deltas survive downsampling.
type aggPoint struct {
	t    int64 // window start, unix milliseconds
	min  float64
	max  float64
	sum  float64
	last float64
	cnt  uint32
}

// fold is an in-progress downsampling window.
type fold struct {
	start int64
	min   float64
	max   float64
	sum   float64
	last  float64
	cnt   uint32
}

// series is one flat sample stream with its three tiers.
type series struct {
	name     string
	raw      obs.Ring[point]
	t1, t2   obs.Ring[aggPoint]
	f1, f2   fold
	flushedT int64 // newest timestamp persisted to a block
}

// binding is one family's cached accessors, resolved against the
// registry when its version moves; the steady-state sample path walks
// bindings and pushes into pre-created series without allocating.
type binding struct {
	readCounter func() uint64
	readGauge   func() float64
	ser         *series

	hist *obs.Histogram
	hser []*series // count, sum, then one per finite bound
}

// FamilyMeta is one family's entry in the names listing.
type FamilyMeta struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Help   string    `json:"help,omitempty"`
	Label  string    `json:"label,omitempty"`
	Values []string  `json:"values,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
}

// blockInfo tracks one on-disk block.
type blockInfo struct {
	name string
	size int64
	minT int64
	maxT int64
}

// Stats is the history store's own counter section. Counters are
// atomics so exporting them as registry families never re-enters the
// DB mutex mid-sample.
type Stats struct {
	Series            int    `json:"series"`
	Samples           uint64 `json:"samples"`
	Points            uint64 `json:"points"`
	Blocks            int    `json:"blocks"`
	BlockBytes        int64  `json:"block_bytes"`
	BlocksWritten     uint64 `json:"blocks_written"`
	BlocksLoaded      uint64 `json:"blocks_loaded"`
	BlocksQuarantined uint64 `json:"blocks_quarantined"`
	BlocksDeleted     uint64 `json:"blocks_deleted"`
	FlushFailures     uint64 `json:"flush_failures"`
	ScrubPasses       uint64 `json:"scrub_passes"`
}

// DB is the embedded time-series store.
type DB struct {
	cfg        Config
	logger     *slog.Logger
	intervalMs int64
	win1Ms     int64
	win2Ms     int64
	rawN       int
	flushEvery int

	mu          sync.Mutex
	closed      bool
	series      map[string]*series
	order       []*series // registration order; flush iterates sorted copy
	meta        map[string]*FamilyMeta
	bindings    []binding
	bindVersion uint64
	haveBound   bool
	scratch     []uint64
	vecScratch  []obs.VecEntry
	encBuf      []byte
	lastSampleT int64
	ticksToGo   int
	blocks      []blockInfo
	blockSeq    int
	lastScrub   time.Time

	nSeries      atomic.Int64
	nSamples     atomic.Uint64
	nPoints      atomic.Uint64
	nBlocks      atomic.Int64
	nBlockBytes  atomic.Int64
	nWritten     atomic.Uint64
	nLoaded      atomic.Uint64
	nQuarantined atomic.Uint64
	nDeleted     atomic.Uint64
	nFlushFail   atomic.Uint64
	nScrubs      atomic.Uint64
}

// Open builds a DB and, when Dir is set, loads every durable block —
// quarantining torn or corrupt ones — and replays the samples through
// the downsampling path so the tiers match what a never-restarted
// process would hold.
func Open(cfg Config) (*DB, error) {
	if cfg.Registry == nil {
		panic("tsdb: Open requires a registry")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 168 * time.Hour
	}
	if cfg.rawPoints <= 0 {
		cfg.rawPoints = defaultRawPoints
	}
	if cfg.flushEvery <= 0 {
		cfg.flushEvery = 30
	}
	if cfg.fs == nil {
		cfg.fs = vfs.OS{}
	}
	if cfg.clock == nil {
		cfg.clock = time.Now
	}
	db := &DB{
		cfg:        cfg,
		logger:     obs.Logger("tsdb"),
		intervalMs: cfg.Interval.Milliseconds(),
		rawN:       cfg.rawPoints,
		flushEvery: cfg.flushEvery,
		series:     make(map[string]*series),
		meta:       make(map[string]*FamilyMeta),
		ticksToGo:  cfg.flushEvery,
		lastScrub:  cfg.clock(),
	}
	if db.intervalMs <= 0 {
		db.intervalMs = 1
	}
	db.win1Ms = 10 * db.intervalMs
	db.win2Ms = 100 * db.intervalMs
	if cfg.Dir != "" {
		if err := db.loadBlocks(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) persistent() bool { return db.cfg.Dir != "" }

// getSeries returns (creating if needed) the flat series for name.
// Callers hold db.mu.
func (db *DB) getSeries(name string) *series {
	if s, ok := db.series[name]; ok {
		return s
	}
	s := &series{
		name: name,
		raw:  obs.NewRing[point](db.rawN),
		t1:   obs.NewRing[aggPoint](db.rawN),
		t2:   obs.NewRing[aggPoint](2 * db.rawN),
	}
	db.series[name] = s
	db.order = append(db.order, s)
	db.nSeries.Store(int64(len(db.series)))
	return s
}

// push appends one sample to a series: the raw ring plus both
// downsampling folds. Folds close on the first sample of a new
// time-aligned window, so replaying the same samples — live or from
// blocks — always reproduces the same tier contents.
func (db *DB) push(s *series, t int64, v float64) {
	s.raw.Push(point{t: t, v: v})
	db.foldInto(&s.f1, &s.t1, db.win1Ms, t, v)
	db.foldInto(&s.f2, &s.t2, db.win2Ms, t, v)
	db.nPoints.Add(1)
}

func (db *DB) foldInto(f *fold, r *obs.Ring[aggPoint], winMs, t int64, v float64) {
	w := t - t%winMs
	if f.cnt > 0 && w != f.start {
		r.Push(aggPoint{t: f.start, min: f.min, max: f.max, sum: f.sum, last: f.last, cnt: f.cnt})
		f.cnt = 0
	}
	if f.cnt == 0 {
		f.start = w
		f.min, f.max = v, v
		f.sum = 0
	} else {
		if v < f.min {
			f.min = v
		}
		if v > f.max {
			f.max = v
		}
	}
	f.sum += v
	f.last = v
	f.cnt++
}

// rebind resolves the registry's families into cached bindings and
// refreshed meta. Runs only when the registry version moved (a family
// was registered or a vec gained a cell), so steady-state sampling
// never allocates. Callers hold db.mu.
func (db *DB) rebind() {
	reg := db.cfg.Registry
	db.bindVersion = reg.Version()
	db.haveBound = true
	db.bindings = db.bindings[:0]
	db.meta = make(map[string]*FamilyMeta)
	maxBuckets := 0
	reg.Families(func(f obs.FamilyInfo) {
		switch f.Kind {
		case obs.KindCounter:
			db.meta[f.Name] = &FamilyMeta{Name: f.Name, Kind: "counter", Help: f.Help}
			db.bindings = append(db.bindings, binding{readCounter: f.ReadCounter, ser: db.getSeries(f.Name)})
		case obs.KindGauge:
			m := &FamilyMeta{Name: f.Name, Kind: "gauge", Help: f.Help, Label: f.VecLabel}
			db.meta[f.Name] = m
			if f.GaugeCells == nil {
				db.bindings = append(db.bindings, binding{readGauge: f.ReadGauge, ser: db.getSeries(f.Name)})
			}
			for _, c := range f.GaugeCells {
				m.Values = append(m.Values, c.Value)
				db.bindings = append(db.bindings, binding{readGauge: c.Read, ser: db.getSeries(m.series(c.Value))})
			}
		case obs.KindHistogram:
			m := &FamilyMeta{Name: f.Name, Kind: "histogram", Help: f.Help, Label: f.VecLabel}
			db.meta[f.Name] = m
			bindHist := func(h *obs.Histogram, cell string) {
				m.Bounds = h.Bounds()
				if n := len(m.Bounds) + 1; n > maxBuckets {
					maxBuckets = n
				}
				base := m.series(cell)
				b := binding{hist: h}
				b.hser = append(b.hser, db.getSeries(base+"#count"), db.getSeries(base+"#sum"))
				for i := range m.Bounds {
					b.hser = append(b.hser, db.getSeries(base+"#b"+itoa(i)))
				}
				db.bindings = append(db.bindings, b)
			}
			if f.Vec != nil {
				db.vecScratch = f.Vec.Entries(db.vecScratch[:0])
				for _, e := range db.vecScratch {
					m.Values = append(m.Values, e.Value)
					bindHist(e.Hist, e.Value)
				}
			} else if f.Hist != nil {
				bindHist(f.Hist, "")
			}
		}
	})
	if cap(db.scratch) < maxBuckets {
		db.scratch = make([]uint64, maxBuckets)
	}
	db.scratch = db.scratch[:cap(db.scratch)]
}

// itoa is strconv.Itoa for the small non-negative ints bucket indices
// use, without pulling strconv into the hot rebind loop.
func itoa(i int) string {
	if i < 10 {
		return string([]byte{byte('0' + i)})
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// Sample takes one registry sweep at time now: every bound family
// appends one point per flat series. When persistence is on it also
// flushes a block every flushEvery samples and runs the periodic scrub.
// The steady state (no new families, no flush due) performs zero heap
// allocations.
func (db *DB) Sample(now time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	if !db.haveBound || db.cfg.Registry.Version() != db.bindVersion {
		db.rebind()
	}
	t := now.UnixMilli()
	if t <= db.lastSampleT {
		// Clock went backwards (or stood still): keep timestamps strictly
		// monotonic so encoding and queries stay well-ordered.
		t = db.lastSampleT + 1
	}
	for i := range db.bindings {
		b := &db.bindings[i]
		switch {
		case b.readCounter != nil:
			db.push(b.ser, t, float64(b.readCounter()))
		case b.readGauge != nil:
			db.push(b.ser, t, b.readGauge())
		case b.hist != nil:
			count, sum := b.hist.ReadInto(db.scratch)
			db.push(b.hser[0], t, float64(count))
			db.push(b.hser[1], t, sum)
			cum := uint64(0)
			for j := 0; j < len(b.hser)-2; j++ {
				cum += db.scratch[j]
				db.push(b.hser[2+j], t, float64(cum))
			}
		}
	}
	db.lastSampleT = t
	db.nSamples.Add(1)
	if db.persistent() {
		db.ticksToGo--
		if db.ticksToGo <= 0 {
			db.ticksToGo = db.flushEvery
			db.flushLocked(t)
		}
		if db.cfg.ScrubInterval > 0 && now.Sub(db.lastScrub) >= db.cfg.ScrubInterval {
			db.lastScrub = now
			db.scrubLocked()
		}
	}
}

// Close flushes the tail and stops accepting samples. Idempotent.
func (db *DB) Close() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	if db.persistent() {
		db.flushLocked(db.lastSampleT)
	}
	db.closed = true
}

// Stats assembles the counter section from atomics — no DB mutex, so
// the registry families mirroring it are safe to read mid-sample.
func (db *DB) Stats() Stats {
	return Stats{
		Series:            int(db.nSeries.Load()),
		Samples:           db.nSamples.Load(),
		Points:            db.nPoints.Load(),
		Blocks:            int(db.nBlocks.Load()),
		BlockBytes:        db.nBlockBytes.Load(),
		BlocksWritten:     db.nWritten.Load(),
		BlocksLoaded:      db.nLoaded.Load(),
		BlocksQuarantined: db.nQuarantined.Load(),
		BlocksDeleted:     db.nDeleted.Load(),
		FlushFailures:     db.nFlushFail.Load(),
		ScrubPasses:       db.nScrubs.Load(),
	}
}

// Names lists the families the history knows, sorted by name — the
// /v1/metrics/names payload. Bindings resolve lazily, so this also
// refreshes them if the registry moved since the last sample.
func (db *DB) Names() []FamilyMeta {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.haveBound || db.cfg.Registry.Version() != db.bindVersion {
		db.rebind()
	}
	out := make([]FamilyMeta, 0, len(db.meta))
	for _, m := range db.meta {
		out = append(out, *m)
	}
	sortMeta(out)
	return out
}

func sortMeta(ms []FamilyMeta) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Name < ms[j-1].Name; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

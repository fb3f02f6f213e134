package lifetime

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// checkpointMagic versions the checkpoint layout. Bump it whenever the
// binary format below changes shape.
const checkpointMagic = "penelope-fleet-v1\n"

// Snapshot serializes the engine's full resumable state: the config
// (JSON header), the epoch cursor, the population trap densities as raw
// float bits, the violation bitset, and the stats accumulated so far,
// every integer a little-endian uint64. Chip parameters are not stored
// — they re-derive from (Seed, Sigma) on load — so the payload is
// dominated by one float64 per device: a million-chip, four-structure
// fleet checkpoints in ~32 MB. An engine restored with FromSnapshot
// produces byte-identical results to an uninterrupted run.
func (e *Engine) Snapshot() ([]byte, error) {
	cfgJSON, err := json.Marshal(e.cfg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(checkpointMagic)+len(cfgJSON)+8*(len(e.nit)+len(e.violated)+len(e.stats)*16))
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	buf = append(buf, checkpointMagic...)
	put(uint64(len(cfgJSON)))
	buf = append(buf, cfgJSON...)
	put(uint64(e.epoch))
	put(uint64(len(e.nit)))
	for _, v := range e.nit {
		put(math.Float64bits(v))
	}
	put(uint64(len(e.violated)))
	for _, v := range e.violated {
		put(v)
	}
	put(uint64(len(e.stats)))
	for _, st := range e.stats {
		put(uint64(st.Epoch))
		put(math.Float64bits(st.Years))
		put(uint64(len(st.Phase)))
		buf = append(buf, st.Phase...)
		for _, f := range []float64{st.MeanGuardband, st.P50Guardband, st.P95Guardband,
			st.P99Guardband, st.MaxGuardband, st.ViolatedFraction} {
			put(math.Float64bits(f))
		}
		put(uint64(len(st.MeanVTHShift)))
		for _, f := range st.MeanVTHShift {
			put(math.Float64bits(f))
		}
	}
	return buf, nil
}

// errTruncated reports a checkpoint that ends before its declared
// contents do.
var errTruncated = errors.New("lifetime: truncated checkpoint")

// snapReader walks a checkpoint payload, bounds-checking every read:
// the first short read latches errTruncated and every later read
// returns zero, so a hostile length never allocates or slices past the
// bytes actually present.
type snapReader struct {
	rest []byte
	err  error
}

// words reports whether n more uint64s can be read, latching
// errTruncated if not.
func (r *snapReader) words(n uint64) bool {
	if r.err != nil || n > uint64(len(r.rest))/8 {
		r.err = errTruncated
	}
	return r.err == nil
}

func (r *snapReader) uint() uint64 {
	if !r.words(1) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.rest)
	r.rest = r.rest[8:]
	return v
}

func (r *snapReader) float() float64 { return math.Float64frombits(r.uint()) }

// bytes returns the next n bytes, aliasing the payload.
func (r *snapReader) bytes(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.rest)) {
		r.err = errTruncated
		return nil
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b
}

// FromSnapshot rebuilds an engine from a Snapshot payload: the config
// is validated and the chip parameters resampled exactly as New would,
// then the population state and accumulated stats are restored
// bit-for-bit. The payload is untrusted input (a file that outlived the
// process that wrote it): every length is checked against the bytes
// present before anything is allocated — a header claiming a
// population the payload cannot hold is rejected before New sizes the
// fleet — and only the canonical encoding is accepted, so every payload
// FromSnapshot accepts round-trips through Snapshot byte for byte.
func FromSnapshot(data []byte) (*Engine, error) {
	if !bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return nil, fmt.Errorf("lifetime: not a fleet checkpoint")
	}
	r := &snapReader{rest: data[len(checkpointMagic):]}
	cfgJSON := r.bytes(r.uint())
	if r.err != nil {
		return nil, fmt.Errorf("lifetime: reading checkpoint config: %w", r.err)
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("lifetime: parsing checkpoint config: %w", err)
	}
	if canon, err := json.Marshal(cfg); err != nil || !bytes.Equal(canon, cfgJSON) {
		return nil, fmt.Errorf("lifetime: checkpoint config is not in canonical form")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("lifetime: checkpoint config invalid: %w", err)
	}
	// The state that follows holds one word per device plus the
	// violation bitset; a population those bytes cannot hold is a
	// corrupt or hostile header, not a fleet to allocate.
	devices := uint64(len(r.rest)) / 8 / uint64(len(cfg.Structures))
	if uint64(cfg.Population) > devices {
		return nil, fmt.Errorf("lifetime: checkpoint claims %d chips but holds at most %d", cfg.Population, devices)
	}
	e, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("lifetime: checkpoint config invalid: %w", err)
	}
	epoch := r.uint()
	if n := r.uint(); r.err == nil && n != uint64(len(e.nit)) {
		return nil, fmt.Errorf("lifetime: checkpoint state has %d devices, config implies %d", n, len(e.nit))
	}
	for i := range e.nit {
		v := r.float()
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("lifetime: checkpoint trap density %g out of range", v)
		}
		e.nit[i] = v
	}
	if n := r.uint(); r.err == nil && n != uint64(len(e.violated)) {
		return nil, fmt.Errorf("lifetime: checkpoint bitset has %d words, config implies %d", n, len(e.violated))
	}
	for i := range e.violated {
		e.violated[i] = r.uint()
	}
	if r.err == nil && epoch > uint64(e.epochTotal) {
		return nil, fmt.Errorf("lifetime: checkpoint cursor at epoch %d of a %d-epoch schedule", epoch, e.epochTotal)
	}
	e.epoch = int(epoch)
	if n := r.uint(); r.err == nil && n != epoch {
		return nil, fmt.Errorf("lifetime: checkpoint cursor at epoch %d with %d stat rows", epoch, n)
	}
	S := uint64(len(cfg.Structures))
	for i := 0; i < e.epoch && r.err == nil; i++ {
		var st EpochStats
		st.Epoch = int(r.uint())
		st.Years = r.float()
		st.Phase = string(r.bytes(r.uint()))
		st.MeanGuardband = r.float()
		st.P50Guardband = r.float()
		st.P95Guardband = r.float()
		st.P99Guardband = r.float()
		st.MaxGuardband = r.float()
		st.ViolatedFraction = r.float()
		if n := r.uint(); r.err == nil && n != S {
			return nil, fmt.Errorf("lifetime: checkpoint stat row has %d structure shifts, config has %d", n, S)
		}
		if !r.words(S) { // before sizing the row
			break
		}
		st.MeanVTHShift = make([]float64, S)
		for s := range st.MeanVTHShift {
			st.MeanVTHShift[s] = r.float()
		}
		e.stats = append(e.stats, st)
	}
	if r.err != nil || len(e.stats) != e.epoch {
		return nil, fmt.Errorf("lifetime: reading checkpoint state: %w", errTruncated)
	}
	if len(r.rest) != 0 {
		return nil, fmt.Errorf("lifetime: %d trailing bytes after checkpoint", len(r.rest))
	}
	return e, nil
}

// Driver steps engines through their schedules together — a lifetime
// job's baseline/Penelope pair, or one continuously aged fleet — and is
// the one place engines are built and stepped under a context.
type Driver struct {
	Engines []*Engine
	Workers int // each engine step's fan-out (<=0 uses GOMAXPROCS)
}

// Open returns a driver over one engine per config, each at epoch 0.
func Open(cfgs ...Config) (*Driver, error) {
	d := &Driver{Engines: make([]*Engine, len(cfgs))}
	for i, cfg := range cfgs {
		var err error
		if d.Engines[i], err = New(cfg); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Run steps every unfinished engine one epoch at a time, polling ctx
// once before each epoch, until all are done, `epochs` epochs have been
// stepped, or `work` chip-epochs have (a P-chip step is P chip-epochs;
// a limit below 1 is none). It returns the chip-epochs stepped, with
// ctx's error if ctx ended the run. A warm epoch allocates only each
// engine's stats row.
func (d *Driver) Run(ctx context.Context, epochs, work int) (int, error) {
	stepped := 0
	for n := 0; !d.Done() && (epochs < 1 || n < epochs) && (work < 1 || stepped < work); n++ {
		if err := ctx.Err(); err != nil {
			return stepped, err
		}
		for _, e := range d.Engines {
			if !e.Done() {
				e.Step(d.Workers)
				stepped += e.cfg.Population
			}
		}
	}
	return stepped, nil
}

// Done reports whether every engine has finished its schedule.
func (d *Driver) Done() bool {
	for _, e := range d.Engines {
		if !e.Done() {
			return false
		}
	}
	return true
}

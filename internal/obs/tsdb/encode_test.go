package tsdb

import (
	"encoding/binary"
	"math"
	"testing"

	"penelope/internal/mix"
)

// splitmix is the property tests' deterministic generator: the
// SplitMix64 counter stream over mix.SplitMix64.
func splitmix(x *uint64) uint64 {
	z := mix.SplitMix64(*x)
	*x += 0x9e3779b97f4a7c15
	return z
}

// TestChunkRoundTripProperty drives the codec with pseudo-random sample
// streams — integral values, arbitrary float bit patterns (NaN payloads
// included), specials (-0, ±Inf), jittered timestamps — and requires
// decode(encode(s)) to reproduce every timestamp and every value
// bit-exactly with no trailing bytes.
func TestChunkRoundTripProperty(t *testing.T) {
	seed := uint64(0xbeef)
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, 1 << 60, -(1 << 60), math.MaxFloat64,
	}
	for trial := 0; trial < 500; trial++ {
		n := int(splitmix(&seed) % 60)
		shape := splitmix(&seed) % 4
		pts := make([]point, 0, n)
		tcur := int64(splitmix(&seed) % (1 << 41)) // plausible unix-milli era
		for i := 0; i < n; i++ {
			tcur += int64(splitmix(&seed)%10_000) + 1
			var v float64
			switch shape {
			case 0: // integral (the counter/bucket fast path)
				v = float64(int64(splitmix(&seed)%1_000_000) - 500_000)
			case 1: // arbitrary bit patterns, NaN payloads included
				v = math.Float64frombits(splitmix(&seed))
			case 2: // smooth-ish floats
				v = float64(splitmix(&seed)%100_000) / 7.0
			default: // specials
				v = specials[splitmix(&seed)%uint64(len(specials))]
			}
			pts = append(pts, point{t: tcur, v: v})
		}
		enc := appendChunk(nil, pts)
		var got []point
		rest, err := decodeChunk(enc, func(ts int64, v float64) {
			got = append(got, point{t: ts, v: v})
		})
		if err != nil {
			t.Fatalf("trial %d (shape %d, n %d): decode: %v", trial, shape, n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("trial %d: %d trailing bytes after decode", trial, len(rest))
		}
		if len(got) != len(pts) {
			t.Fatalf("trial %d: decoded %d samples, want %d", trial, len(got), len(pts))
		}
		for i := range pts {
			if got[i].t != pts[i].t {
				t.Fatalf("trial %d sample %d: t=%d, want %d", trial, i, got[i].t, pts[i].t)
			}
			if math.Float64bits(got[i].v) != math.Float64bits(pts[i].v) {
				t.Fatalf("trial %d sample %d: bits %016x, want %016x (v=%v want %v)",
					trial, i, math.Float64bits(got[i].v), math.Float64bits(pts[i].v), got[i].v, pts[i].v)
			}
		}
	}
}

// TestChunkTruncationRejected: every strict prefix of a valid non-empty
// chunk must fail decoding with an error, never panic or succeed.
func TestChunkTruncationRejected(t *testing.T) {
	pts := []point{
		{t: 1_700_000_000_000, v: 1},
		{t: 1_700_000_001_000, v: 2.5},
		{t: 1_700_000_002_000, v: math.NaN()},
		{t: 1_700_000_003_000, v: -7},
	}
	enc := appendChunk(nil, pts)
	for cut := 0; cut < len(enc); cut++ {
		_, err := decodeChunk(enc[:cut], func(int64, float64) {})
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(enc))
		}
	}
}

// TestChunkRegularCadenceCompact pins the design point: a regular
// sampling interval costs ~1 byte per timestamp after the first two,
// and a flat counter ~1 byte per value.
func TestChunkRegularCadenceCompact(t *testing.T) {
	pts := make([]point, 120)
	for i := range pts {
		pts[i] = point{t: 1_700_000_000_000 + int64(i)*10_000, v: float64(500 + i)}
	}
	enc := appendChunk(nil, pts)
	if len(enc) > 2*len(pts)+20 {
		t.Fatalf("regular 120-sample chunk is %d bytes; want ≲ %d", len(enc), 2*len(pts)+20)
	}
}

func TestEmptyChunk(t *testing.T) {
	enc := appendChunk(nil, nil)
	rest, err := decodeChunk(enc, func(int64, float64) { t.Fatal("emit on empty chunk") })
	if err != nil || len(rest) != 0 {
		t.Fatalf("empty chunk: rest=%d err=%v", len(rest), err)
	}
}

// TestChunkHostileCountRejected: a header claiming more samples than
// the chunk has bytes fails before anything is allocated for them.
func TestChunkHostileCountRejected(t *testing.T) {
	for _, mode := range []byte{valueModeInt, valueModeFloat} {
		enc := append(appendUvarint(nil, 1<<62), mode, 0, 0, 0)
		if _, err := decodeChunk(enc, func(int64, float64) {}); err == nil {
			t.Fatalf("mode %d: a 2^62-sample header decoded without error", mode)
		}
	}
}

// FuzzDecodeChunk feeds arbitrary bytes to the chunk decoder, as a
// block read at boot may hold (the frame checksum covers the bytes, not
// their meaning). It must never panic, must emit as many samples as
// the header claims when it succeeds, and the codec must round-trip
// whatever it accepted bit-exactly.
func FuzzDecodeChunk(f *testing.F) {
	ints := []point{{t: 1_700_000_000_000, v: 1}, {t: 1_700_000_010_000, v: 3}, {t: 1_700_000_020_000, v: -7}}
	floats := []point{{t: 1_700_000_000_000, v: 2.5}, {t: 1_700_000_010_000, v: math.NaN()}, {t: 1_700_000_020_000, v: math.Copysign(0, -1)}}
	f.Add(appendChunk(nil, ints))
	f.Add(appendChunk(nil, floats))
	f.Add(appendChunk(nil, nil))
	f.Add(append(appendUvarint(nil, 1<<62), valueModeInt, 0))
	f.Fuzz(func(t *testing.T, src []byte) {
		var got []point
		if _, err := decodeChunk(src, func(ts int64, v float64) { got = append(got, point{t: ts, v: v}) }); err != nil {
			return
		}
		if n, _ := binary.Uvarint(src); n != uint64(len(got)) {
			t.Fatalf("header claims %d samples, decoded %d", n, len(got))
		}
		var again []point
		if _, err := decodeChunk(appendChunk(nil, got), func(ts int64, v float64) {
			again = append(again, point{t: ts, v: v})
		}); err != nil || len(again) != len(got) {
			t.Fatalf("re-encoded chunk: %d of %d samples, %v", len(again), len(got), err)
		}
		for i := range got {
			if again[i].t != got[i].t || math.Float64bits(again[i].v) != math.Float64bits(got[i].v) {
				t.Fatalf("sample %d: round trip gave %+v, want %+v", i, again[i], got[i])
			}
		}
	})
}

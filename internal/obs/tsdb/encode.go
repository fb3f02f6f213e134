package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Chunk codec: one chunk holds one series' raw samples in time order.
//
// Layout:
//
//	uvarint n            sample count
//	byte    mode         valueModeInt or valueModeFloat
//	timestamps           delta-of-delta, zigzag-varint (first absolute,
//	                     second a delta, the rest delta-of-delta) — a
//	                     regular sampling interval costs one byte per
//	                     timestamp after the first two
//	values   int mode:   same delta-of-delta zigzag-varint scheme over
//	                     the int64 the float round-trips through; chosen
//	                     when every value in the chunk round-trips
//	                     bit-exactly (counters, bucket counts, integral
//	                     gauges — the overwhelming majority of series)
//	         float mode: XOR with the previous value's bits, uvarint;
//	                     nearby floats share sign/exponent/high-mantissa
//	                     bits, so the XOR is small and varints stay short
//
// Both modes reproduce the input float64 stream bit-exactly, including
// NaN payloads, -0 and infinities: int mode is only selected when the
// bits survive the int64 round trip (which -0 and NaN never do), and
// float mode moves raw bits.
const (
	valueModeInt   = 0
	valueModeFloat = 1
)

// intExact reports whether v survives float64 → int64 → float64
// bit-exactly. Rejects NaN, ±Inf, -0 and anything past 2^53.
func intExact(v float64) (int64, bool) {
	iv := int64(v)
	return iv, math.Float64bits(float64(iv)) == math.Float64bits(v)
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// dodEncoder appends a delta-of-delta zigzag-varint int64 stream.
type dodEncoder struct {
	n               int
	prev, prevDelta int64
}

func (e *dodEncoder) append(dst []byte, x int64) []byte {
	switch e.n {
	case 0:
		dst = appendZigzag(dst, x)
	case 1:
		e.prevDelta = x - e.prev
		dst = appendZigzag(dst, e.prevDelta)
	default:
		d := x - e.prev
		dst = appendZigzag(dst, d-e.prevDelta)
		e.prevDelta = d
	}
	e.prev = x
	e.n++
	return dst
}

// dodDecoder mirrors dodEncoder.
type dodDecoder struct {
	n               int
	prev, prevDelta int64
}

func (d *dodDecoder) next(src []byte) (int64, []byte, error) {
	v, k := binary.Varint(src)
	if k <= 0 {
		return 0, nil, fmt.Errorf("tsdb: truncated varint in chunk")
	}
	src = src[k:]
	var x int64
	switch d.n {
	case 0:
		x = v
	case 1:
		d.prevDelta = v
		x = d.prev + v
	default:
		d.prevDelta += v
		x = d.prev + d.prevDelta
	}
	d.prev = x
	d.n++
	return x, src, nil
}

// appendChunk encodes pts (time-ordered) as one chunk appended to dst.
func appendChunk(dst []byte, pts []point) []byte {
	dst = appendUvarint(dst, uint64(len(pts)))
	if len(pts) == 0 {
		return dst
	}
	mode := byte(valueModeInt)
	for _, p := range pts {
		if _, ok := intExact(p.v); !ok {
			mode = valueModeFloat
			break
		}
	}
	dst = append(dst, mode)
	var te dodEncoder
	for _, p := range pts {
		dst = te.append(dst, p.t)
	}
	if mode == valueModeInt {
		var ve dodEncoder
		for _, p := range pts {
			iv, _ := intExact(p.v)
			dst = ve.append(dst, iv)
		}
		return dst
	}
	prev := uint64(0)
	for _, p := range pts {
		bits := math.Float64bits(p.v)
		dst = appendUvarint(dst, bits^prev)
		prev = bits
	}
	return dst
}

// decodeChunk decodes one chunk from src, calling emit per sample, and
// returns the remaining bytes.
func decodeChunk(src []byte, emit func(t int64, v float64)) ([]byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, fmt.Errorf("tsdb: truncated chunk header")
	}
	src = src[k:]
	if n == 0 {
		return src, nil
	}
	if len(src) == 0 {
		return nil, fmt.Errorf("tsdb: chunk missing mode byte")
	}
	mode := src[0]
	if mode != valueModeInt && mode != valueModeFloat {
		return nil, fmt.Errorf("tsdb: unknown chunk value mode %d", mode)
	}
	src = src[1:]
	if n > uint64(len(src)) { // every timestamp takes at least one byte
		return nil, fmt.Errorf("tsdb: chunk claims %d samples in %d bytes", n, len(src))
	}
	ts := make([]int64, n)
	var td dodDecoder
	var err error
	for i := range ts {
		ts[i], src, err = td.next(src)
		if err != nil {
			return nil, err
		}
	}
	if mode == valueModeInt {
		var vd dodDecoder
		for i := range ts {
			var iv int64
			iv, src, err = vd.next(src)
			if err != nil {
				return nil, err
			}
			emit(ts[i], float64(iv))
		}
		return src, nil
	}
	prev := uint64(0)
	for i := range ts {
		x, k := binary.Uvarint(src)
		if k <= 0 {
			return nil, fmt.Errorf("tsdb: truncated float value")
		}
		src = src[k:]
		prev ^= x
		emit(ts[i], math.Float64frombits(prev))
	}
	return src, nil
}

package vfs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Frame wraps payload in the verification frame every persisted
// artifact with a checksum uses (store results, tsdb blocks):
//
//	magic    caller's format/version string
//	length   8-byte little-endian payload length
//	payload
//	checksum sha256(payload)
//
// Each format keeps its own magic, so bumping one never invalidates
// another and a file of one kind never parses as the other.
func Frame(magic string, payload []byte) []byte {
	return AppendFrame(make([]byte, 0, len(magic)+8+len(payload)+sha256.Size), magic, payload)
}

// AppendFrame appends the frame of payload to dst, for a caller that
// reuses one buffer across writes.
func AppendFrame(dst []byte, magic string, payload []byte) []byte {
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	sum := sha256.Sum256(payload)
	return append(dst, sum[:]...)
}

// Unframe fully verifies a frame — magic, exact length, checksum, no
// trailing bytes — and returns the payload, aliasing data.
func Unframe(magic string, data []byte) ([]byte, error) {
	if len(data) < len(magic)+8+sha256.Size {
		return nil, fmt.Errorf("truncated frame (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic %q", data[:len(magic)])
	}
	rest := data[len(magic):]
	n := binary.LittleEndian.Uint64(rest[:8])
	rest = rest[8:]
	if uint64(len(rest)-sha256.Size) != n {
		return nil, fmt.Errorf("frame claims %d payload bytes, holds %d", n, len(rest)-sha256.Size)
	}
	payload, sum := rest[:n], rest[n:]
	if want := sha256.Sum256(payload); string(sum) != string(want[:]) {
		return nil, fmt.Errorf("payload checksum mismatch")
	}
	return payload, nil
}

// ReadFrame reads path from fsys and unframes it under magic.
func ReadFrame(fsys FS, path, magic string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unframe(magic, data)
}

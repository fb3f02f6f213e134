package vfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"
)

// The magics of the two on-disk formats sharing the frame: store
// result files and tsdb blocks.
const (
	storeMagic = "penelope-store-v1\n"
	tsdbMagic  = "penelope-tsdb-v1\n"
)

// TestFrameLayoutPinned pins the framed bytes for a fixed payload under
// both magics (digests computed independently of this code), so files
// already on disk keep loading.
func TestFrameLayoutPinned(t *testing.T) {
	payload := []byte(`{"experiment":"fig4"}`)
	for _, tc := range []struct {
		magic  string
		size   int
		digest string
	}{
		{storeMagic, 79, "8cc8dec848c7e94c71a422ace5a9e48bbacafd3c816e5eedeeb287c675756c7d"},
		{tsdbMagic, 78, "38cf34b8777fd43afd24dbfeac5a7e31e5cbb07f1906f1aba66baa86475ff4c7"},
	} {
		framed := Frame(tc.magic, payload)
		sum := sha256.Sum256(framed)
		if len(framed) != tc.size || hex.EncodeToString(sum[:]) != tc.digest {
			t.Errorf("%q frame: %d bytes, sha256 %x; want %d bytes, %s", tc.magic, len(framed), sum, tc.size, tc.digest)
		}
		got, err := Unframe(tc.magic, framed)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%q: Unframe = %q, %v", tc.magic, got, err)
		}
	}
}

// TestUnframeRejects covers each verification step, including a
// length field near 2^64 that must not wrap the bounds check.
func TestUnframeRejects(t *testing.T) {
	good := Frame(storeMagic, []byte("payload"))
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	cases := map[string][]byte{
		"empty":        nil,
		"short":        good[:len(storeMagic)+8+sha256.Size-1],
		"other magic":  Frame(tsdbMagic, []byte("payload")),
		"torn tail":    good[:len(good)-1],
		"trailing":     append(bytes.Clone(good), 0),
		"payload flip": mutate(func(b []byte) []byte { b[len(storeMagic)+8] ^= 1; return b }),
		"sum flip":     mutate(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }),
		"huge length": mutate(func(b []byte) []byte {
			for i := 0; i < 8; i++ {
				b[len(storeMagic)+i] = 0xff
			}
			return b
		}),
	}
	for name, data := range cases {
		if _, err := Unframe(storeMagic, data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if _, err := WriteAtomic(OS{}, path, Frame(tsdbMagic, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFrame(OS{}, path, tsdbMagic); err != nil || string(got) != "x" {
		t.Fatalf("ReadFrame = %q, %v", got, err)
	}
	if _, err := ReadFrame(OS{}, path, storeMagic); err == nil {
		t.Fatal("ReadFrame accepted a frame under the wrong magic")
	}
	if _, err := ReadFrame(OS{}, path+"-missing", tsdbMagic); err == nil {
		t.Fatal("ReadFrame of a missing file succeeded")
	}
}

// FuzzUnframe feeds arbitrary bytes to the shared frame decoder under
// both formats' magics. Invariants: no panic, and every accepted input
// re-frames to the identical bytes (the decoder accepts exactly the
// encoder's image, nothing looser).
func FuzzUnframe(f *testing.F) {
	result := Frame(storeMagic, []byte(`{"experiment":"fig4","options":{"trace_length":2000}}`))
	// A one-series tsdb block payload: count, name, chunk.
	block := Frame(tsdbMagic, []byte{1, 3, 's', 'i', 'g', 4, 0x02, 0x80, 0x01, 0x3f})
	for _, tc := range []struct {
		magic string
		valid []byte
	}{{storeMagic, result}, {tsdbMagic, block}} {
		f.Add(tc.valid)
		f.Add(tc.valid[:len(tc.valid)-1])
		f.Add(tc.valid[:len(tc.magic)+8])
		for _, at := range []int{0, len(tc.magic), len(tc.magic) + 8, len(tc.valid) - 1} {
			flipped := bytes.Clone(tc.valid)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, magic := range []string{storeMagic, tsdbMagic} {
			payload, err := Unframe(magic, data)
			if err != nil {
				continue
			}
			if again := Frame(magic, payload); !bytes.Equal(again, data) {
				t.Fatalf("accepted %d bytes under %q that re-frame to %d different bytes", len(data), magic, len(again))
			}
		}
	})
}

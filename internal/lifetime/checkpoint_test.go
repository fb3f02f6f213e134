package lifetime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
)

// smallSnapshot is a few epochs into a tiny fleet: the fuzz seed and
// the base every hostile-header case is derived from.
func smallSnapshot(t testing.TB) []byte {
	t.Helper()
	cfg := testConfig(70, 0.1) // two bitset words, one of them partial
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.Step(1)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// withHeader rewrites a snapshot's JSON config header, keeping the
// state after it untouched.
func withHeader(snap []byte, rewrite func([]byte) []byte) []byte {
	rest := snap[len(checkpointMagic):]
	n := binary.LittleEndian.Uint64(rest)
	cfgJSON := rewrite(rest[8 : 8+n])
	out := binary.LittleEndian.AppendUint64([]byte(checkpointMagic), uint64(len(cfgJSON)))
	out = append(out, cfgJSON...)
	return append(out, rest[8+n:]...)
}

// withConfig rewrites the snapshot's config, canonically encoded.
func withConfig(t *testing.T, snap []byte, mutate func(*Config)) []byte {
	t.Helper()
	return withHeader(snap, func(raw []byte) []byte {
		var cfg Config
		if err := json.Unmarshal(raw, &cfg); err != nil {
			t.Fatal(err)
		}
		mutate(&cfg)
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

// TestSnapshotRejectsHostileHeaders feeds headers whose config is
// valid except for a size the payload cannot back. Each must fail with
// an error before New allocates — a population of 2^62 used to reach
// make() and panic with "makeslice: len out of range".
func TestSnapshotRejectsHostileHeaders(t *testing.T) {
	snap := smallSnapshot(t)
	if _, err := FromSnapshot(snap); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"population 2^62":   func(c *Config) { c.Population = 1 << 62 },
		"population x1000":  func(c *Config) { c.Population *= 1000 },
		"epochs past bound": func(c *Config) { c.EpochYears = c.Phases[0].Years / (2 * MaxEpochs) },
	} {
		if _, err := FromSnapshot(withConfig(t, snap, mutate)); err == nil {
			t.Errorf("%s: hostile header accepted", name)
		}
	}
	if _, err := FromSnapshot(append(append([]byte(nil), snap...), 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte accepted (err = %v)", err)
	}
	spaced := withHeader(snap, func(raw []byte) []byte { return append([]byte(" "), raw...) })
	if _, err := FromSnapshot(spaced); err == nil {
		t.Error("non-canonical config header accepted")
	}
}

// FuzzFromSnapshot throws truncated, bit-flipped and arbitrary bytes at
// the checkpoint decoder. It must never panic, and anything it accepts
// must re-encode to exactly the input.
func FuzzFromSnapshot(f *testing.F) {
	snap := smallSnapshot(f)
	f.Add(snap)
	for _, n := range []int{0, 5, len(checkpointMagic), len(checkpointMagic) + 8, len(snap) / 2, len(snap) - 1} {
		f.Add(snap[:n])
	}
	for _, at := range []int{len(checkpointMagic), len(checkpointMagic) + 7, len(checkpointMagic) + 40, len(snap) - 300, len(snap) - 8} {
		flipped := append([]byte(nil), snap...)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := FromSnapshot(data)
		if err != nil {
			return
		}
		again, err := e.Snapshot()
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted snapshot does not round-trip (%d bytes in, %d out)", len(data), len(again))
		}
	})
}

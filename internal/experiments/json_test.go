package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed JSON goldens")

// goldenOptions matches the replay golden tests: a light workload and a
// small fleet so the whole registry runs in seconds.
func goldenOptions() Options {
	return Options{TraceLength: 2000, TraceStride: 90, Population: 600}
}

// TestResultJSONDeterministic runs every registry experiment once and
// requires two marshals of the result to be byte-identical, the
// envelope to carry the right id and normalized options, and the bytes
// to round-trip as JSON.
func TestResultJSONDeterministic(t *testing.T) {
	o := goldenOptions()
	for _, spec := range Experiments() {
		res := spec.Run(o)
		if res.ID() != spec.ID {
			t.Errorf("%s: result ID() = %q", spec.ID, res.ID())
		}
		first, err := NewPayload(res, o).Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.ID, err)
		}
		second, err := NewPayload(res, o).Marshal()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", spec.ID, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: marshaling twice produced different bytes", spec.ID)
		}
		std, err := json.MarshalIndent(NewPayload(res, o), "", "  ")
		if err != nil {
			t.Fatalf("%s: MarshalIndent: %v", spec.ID, err)
		}
		if !bytes.Equal(first, std) {
			t.Errorf("%s: Marshal differs from json.MarshalIndent (%d vs %d bytes)", spec.ID, len(first), len(std))
		}
		var env struct {
			Schema     int             `json:"schema"`
			Experiment string          `json:"experiment"`
			Options    Options         `json:"options"`
			Data       json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(first, &env); err != nil {
			t.Fatalf("%s: payload does not parse: %v", spec.ID, err)
		}
		if env.Schema != SchemaVersion || env.Experiment != spec.ID {
			t.Errorf("%s: envelope = {schema %d, experiment %q}", spec.ID, env.Schema, env.Experiment)
		}
		if env.Options != o.normalized() {
			t.Errorf("%s: envelope options = %+v, want normalized %+v", spec.ID, env.Options, o.normalized())
		}
		if len(env.Data) == 0 || string(env.Data) == "null" {
			t.Errorf("%s: empty data payload", spec.ID)
		}
	}
}

// TestResultJSONGolden pins the Fig 6, Fig 8 and fleet lifetime/yield
// payloads against committed goldens: the simulation is deterministic,
// so the marshaled bytes must reproduce exactly across processes and
// machines. Refresh with `go test ./internal/experiments -run Golden
// -update` after an intentional schema or simulation change.
func TestResultJSONGolden(t *testing.T) {
	o := goldenOptions()
	for _, id := range []string{"fig6", "fig8", "lifetime", "yield"} {
		res, err := Run(id, o)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := NewPayload(res, o).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", id+"_golden.json")
		if *updateGolden {
			if err := os.WriteFile(path, payload, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", id, err)
		}
		if !bytes.Equal(payload, want) {
			t.Errorf("%s: payload diverges from committed golden %s (%d vs %d bytes); run with -update if intentional",
				id, path, len(payload), len(want))
		}
	}
}

// TestMarshalExactCapacity checks that Marshal hands back no unused
// capacity, which a cache charging cap(payload) would count as resident,
// and that trimming it changed no byte: a pop-500 lifetime payload (the
// size every perfbench fleet-miss job ships) still matches
// json.MarshalIndent, and fig6 at the golden options still matches its
// committed golden.
func TestMarshalExactCapacity(t *testing.T) {
	lo := Options{TraceLength: 2000, TraceStride: 90, Population: 500}
	res, err := Run("lifetime", lo)
	if err != nil {
		t.Fatal(err)
	}
	lifetime, err := NewPayload(res, lo).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	std, err := json.MarshalIndent(NewPayload(res, lo), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lifetime, std) {
		t.Errorf("lifetime: Marshal differs from json.MarshalIndent (%d vs %d bytes)", len(lifetime), len(std))
	}

	o := goldenOptions()
	if res, err = Run("fig6", o); err != nil {
		t.Fatal(err)
	}
	fig6, err := NewPayload(res, o).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "fig6_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fig6, golden) {
		t.Errorf("fig6: payload diverges from committed golden (%d vs %d bytes)", len(fig6), len(golden))
	}

	for id, payload := range map[string][]byte{"lifetime": lifetime, "fig6": fig6} {
		if cap(payload) != len(payload) {
			t.Errorf("%s: payload len %d, cap %d; want no unused capacity", id, len(payload), cap(payload))
		}
	}
}

// TestIndentMatchesMarshalIndent re-indents the compacted bytes of all
// four committed goldens and a set of edge cases — empty and nested
// containers, escapes and delimiters inside strings, top-level scalars
// — and requires AppendIndent to reproduce json.Indent exactly.
func TestIndentMatchesMarshalIndent(t *testing.T) {
	cases := []string{
		`{}`, `[]`, `null`, `true`, `-1.5e-07`, `"a\\"`,
		`{"a":[],"b":{},"c":[{}],"d":[[],[[]]]}`,
		`{"k":"x\"y\\","e":"{[,:]}","u":"\u003c\u0026\u003e","n":null}`,
		`["a\",\"b","c\\",{"d\\":"\\\\"},"\"{}\""]`,
		`[1,-2,3.25,1e+21,"s",false,{"a":{"b":{"c":[0]}}}]`,
	}
	for _, id := range []string{"fig6", "fig8", "lifetime", "yield"} {
		golden, err := os.ReadFile(filepath.Join("testdata", id+"_golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, string(golden))
	}
	for _, c := range cases {
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, []byte(c)); err != nil {
			t.Fatalf("case %.40q: %v", c, err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := AppendIndent(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("case %.40q: AppendIndent gave\n%s\nwant\n%s", c, got, want.Bytes())
		}
	}
}

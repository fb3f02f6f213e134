package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"penelope/internal/fleetops"
)

// TestLoadListFiles reads -slo-config and -fleet-config files in both
// accepted shapes, {"<key>": [...]} and a bare array, and refuses what
// is neither with the error naming the wrapped key.
func TestLoadListFiles(t *testing.T) {
	dir := t.TempDir()
	file := func(body string) string {
		path := filepath.Join(dir, "list.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const rule = `{"name":"r","kind":"threshold","series":"s","objective":1}`
	const fleet = `{"name":"pop","interval":"150ms"}`
	wantRule := []fleetops.SLORule{{Name: "r", Kind: "threshold", Series: "s", Objective: 1}}
	wantFleet := []fleetops.Registration{{Name: "pop", Interval: fleetops.Duration(150e6)}}
	cases := []struct {
		name, body string
		slo        []fleetops.SLORule      // want from loadSLOConfig
		fleets     []fleetops.Registration // want from the fleet loader
		sloErr     string                  // substring of the loadSLOConfig error
		fleetErr   string                  // substring of the fleet loader error
	}{
		{name: "rules wrapped", body: `{"rules": [` + rule + `]}`, slo: wantRule,
			fleetErr: `want {"fleets": [...]} or a bare array`},
		{name: "fleets wrapped", body: `{"fleets": [` + fleet + `]}`, fleets: wantFleet,
			sloErr: `want {"rules": [...]} or a bare array`},
		{name: "bare rules", body: `[` + rule + `]`, slo: wantRule,
			fleets: []fleetops.Registration{{Name: "r"}}},
		{name: "bare fleets", body: `[` + fleet + `]`, fleets: wantFleet,
			slo: []fleetops.SLORule{{Name: "pop"}}},
		{name: "empty wrapped", body: `{"rules": [], "fleets": []}`,
			slo: []fleetops.SLORule{}, fleets: []fleetops.Registration{}},
		{name: "null wrapped", body: `{"rules": null, "fleets": null}`,
			sloErr: `want {"rules": [...]}`, fleetErr: `want {"fleets": [...]}`},
		{name: "malformed", body: `{"rules": [`,
			sloErr:   `want {"rules": [...]} or a bare array: unexpected end of JSON input`,
			fleetErr: `want {"fleets": [...]} or a bare array: unexpected end of JSON input`},
		{name: "scalar", body: `42`,
			sloErr: `want {"rules": [...]}`, fleetErr: `want {"fleets": [...]}`},
	}
	check := func(t *testing.T, got any, err error, want any, wantErr string) {
		t.Helper()
		if wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %#v, want %#v", got, want)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := file(c.body)
			rules, err := loadSLOConfig(path)
			check(t, rules, err, c.slo, c.sloErr)
			regs, err := loadList[fleetops.Registration](path, "fleets")
			check(t, regs, err, c.fleets, c.fleetErr)
		})
	}
	if rules, err := loadSLOConfig(""); rules != nil || err != nil {
		t.Fatalf("no -slo-config gave %v, %v", rules, err)
	}
	if _, err := loadSLOConfig(filepath.Join(dir, "missing.json")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v", err)
	}
}

// FuzzLoadList feeds arbitrary bytes to the decoder behind
// -slo-config and -fleet-config (loadList reads the file, parseList
// decodes it). It must never panic, and must accept exactly the two
// documented shapes: an object whose "<key>" (matched as encoding/json
// matches field names) holds an array, or a bare array. An accepted
// list is the one that shape decodes to.
func FuzzLoadList(f *testing.F) {
	const rule = `{"name":"r","kind":"threshold","series":"s","objective":1}`
	for _, seed := range []string{
		`{"rules": [` + rule + `]}`, `[` + rule + `]`, `{"rules": []}`, `{"rules": null}`,
		`{"fleets": [{"name":"pop","interval":"150ms"}]}`, `{"Rules": [{}], "rules": [{}, {}]}`,
		`[]`, `null`, `42`, `{"rules": [`, `{"rules": [{"objective": "x"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParseList[fleetops.SLORule](t, "rules", data)
		checkParseList[fleetops.Registration](t, "fleets", data)
	})
}

// checkParseList checks parseList[T](data, key) against the two shapes
// of data it may accept.
func checkParseList[T any](t *testing.T, key string, data []byte) {
	t.Helper()
	got, err := parseList[T](data, key)
	var bare []T
	bareErr := json.Unmarshal(data, &bare)
	var top map[string]json.RawMessage
	var wrapped []T // the last array under key, as encoding/json picks it
	if json.Unmarshal(data, &top) == nil {
		for k, raw := range top {
			var list []T
			if strings.EqualFold(k, key) && json.Unmarshal(raw, &list) == nil && list != nil {
				wrapped = list
			}
		}
	}
	switch {
	case err != nil:
		if bareErr == nil {
			t.Fatalf("refused a bare array %q: %v", data, err)
		}
		if wrapped != nil && len(top) == 1 {
			t.Fatalf("refused a wrapped %q list %q: %v", key, data, err)
		}
	case bareErr == nil:
		if !reflect.DeepEqual(got, bare) {
			t.Fatalf("bare array %q read as %#v, want %#v", data, got, bare)
		}
	case wrapped == nil:
		t.Fatalf("accepted %q, neither a bare array nor an object with a %q array", data, key)
	case len(top) == 1 && !reflect.DeepEqual(got, wrapped):
		t.Fatalf("wrapped %q read as %#v, want %#v", data, got, wrapped)
	}
}

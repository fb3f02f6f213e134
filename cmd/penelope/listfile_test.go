package main

import (
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

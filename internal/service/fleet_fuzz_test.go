package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"penelope/internal/fleetops"
	"penelope/internal/store"
)

// FuzzRegisterFleet posts arbitrary bodies to POST /v1/fleets on a
// store-backed server whose fleets build from a cheap synthetic config.
// It must never panic, and must answer only 201, 400, 409, 429 or 503.
// Every accepted body must decode to a registration that re-validates,
// and the record the server stored for it must pass the check Recover
// applies at boot — decode, the stored name, a non-negative cursor,
// Validate — or the next boot would quarantine a fleet the server
// admitted. Each accepted fleet is deregistered before the next input.
func FuzzRegisterFleet(f *testing.F) {
	cfg := fastFleetConfig(testFleetBuilder(2))
	cfg.Workers = 1
	cfg.HistoryInterval = -1
	cfg.DataDir = f.TempDir()
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	full := `{"name":"pop","fleet":"baseline","options":{"trace_length":2000,"trace_stride":120,"population":500,"years":2,"epoch_days":30,"fleet_seed":3},"interval":"1h","cooldown":"1s","epochs_per_tick":2,"alerts":{"p99_guardband":0.08,"violated_fraction":0.1,"duty_tolerance":0.25}}`
	for _, body := range []string{
		`{"name":"pop"}`,
		`{"name":"pop","interval":3600000000000}`,
		full,
		full[:len(full)/2],
		`{"name":"Pop"}`,
		`{"name":"-pop"}`,
		`{"name":"pop","fleet":"other"}`,
		`{"name":"pop","epochs_per_tick":-1}`,
		`{"name":"pop","interval":"-1s"}`,
		`{"name":"pop","interval":"soon"}`,
		`{"name":"pop","alerts":{"p99_guardband":-1}}`,
		`{"name":"pop","options":{"population":1000001}}`,
		`{"name":"pop","options":{"population":1000000,"years":2800,"epoch_days":1}}`,
		`{"name":"pop","cursor":5}`,
		`{"name":"pop"} {"name":"two"}`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleets", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var st fleetops.Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("201 with an undecodable status: %v", err)
		}
		defer func() {
			del := httptest.NewRecorder()
			h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/fleets/"+st.Name, nil))
			if del.Code != http.StatusOK {
				t.Fatalf("deregistering accepted fleet %q: status %d", st.Name, del.Code)
			}
		}()

		var reg fleetops.Registration
		if err := json.Unmarshal(body, &reg); err != nil {
			t.Fatalf("accepted body does not decode as a registration: %v", err)
		}
		if err := reg.Validate(); err != nil {
			t.Fatalf("accepted registration fails Validate: %v", err)
		}
		if reg.Name != st.Name {
			t.Fatalf("accepted %q, status names %q", reg.Name, st.Name)
		}

		// Recover's check, on the bytes the next boot would read.
		data, err := s.store.ReadRecord(store.KindFleet, st.Name)
		if err != nil || data == nil {
			t.Fatalf("accepted fleet %q has no stored record (%v)", st.Name, err)
		}
		var stored struct {
			fleetops.Registration
			Cursor *int `json:"cursor"`
		}
		if err := json.Unmarshal(data, &stored); err != nil {
			t.Fatalf("stored record does not decode: %v", err)
		}
		if stored.Name != st.Name {
			t.Fatalf("record of %q names %q", st.Name, stored.Name)
		}
		if stored.Cursor != nil && *stored.Cursor < 0 {
			t.Fatalf("record of %q at negative epoch %d", st.Name, *stored.Cursor)
		}
		if err := stored.Validate(); err != nil {
			t.Fatalf("stored record fails Validate: %v", err)
		}
	})
}

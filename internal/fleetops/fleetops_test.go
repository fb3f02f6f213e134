package fleetops

import (
	"encoding/json"
	"sort"
	"sync"
	"testing"
	"time"

	"penelope/internal/circuit"
	"penelope/internal/lifetime"
	"penelope/internal/store"
)

// testConfig is a small, fast fleet: two structures under a service
// workload, optionally interrupted by a duty-1.0 attack phase in the
// middle (mirroring experiments.fleetSchedule).
func testConfig(serviceYears, attackYears float64, sigma float64) lifetime.Config {
	p := lifetime.DefaultParams()
	duty := []float64{0.55, 0.35}
	var phases []lifetime.Phase
	if attackYears > 0 {
		pre := (serviceYears - attackYears) / 2
		full := []float64{1, 1}
		phases = []lifetime.Phase{
			{Name: "service", Years: pre, Duty: duty},
			{Name: "attack", Years: attackYears, Duty: full},
			{Name: "service", Years: serviceYears - attackYears - pre, Duty: duty},
		}
	} else {
		phases = []lifetime.Phase{{Name: "service", Years: serviceYears, Duty: duty}}
	}
	return lifetime.Config{
		Structures: []string{"adder", "regfile"},
		Phases:     phases,
		Population: 512,
		EpochYears: 30.0 / 365.25,
		Seed:       1,
		Sigma:      sigma,
		Limit:      lifetime.DefaultLimit,
		Params:     p,
		Delay:      circuit.NewDelayModel(circuit.PathStats{Depth: 10, Narrow: 5}, p.MaxVTHShift, p.MaxGuardband),
	}
}

// testBuilder ignores the registration's options and returns a fixed
// small config, keeping scheduler tests far from the trace pipeline.
func testBuilder(cfg lifetime.Config) ConfigBuilder {
	return func(Registration) (lifetime.Config, error) { return cfg, nil }
}

// memStorage is an in-memory fleetops.Storage. Quarantined records —
// set aside by QuarantineRecord, or rejected by a Records check as the
// store does — move to quarantined, keyed by kind and name.
type memStorage struct {
	mu          sync.Mutex
	recs        map[store.Kind]map[string][]byte
	quarantined map[store.Kind]map[string][]byte
}

func newMemStorage() *memStorage {
	return &memStorage{
		recs:        make(map[store.Kind]map[string][]byte),
		quarantined: make(map[store.Kind]map[string][]byte),
	}
}

func (m *memStorage) PutRecord(k store.Kind, name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recs[k] == nil {
		m.recs[k] = make(map[string][]byte)
	}
	m.recs[k][name] = append([]byte(nil), data...)
	return nil
}

func (m *memStorage) ReadRecord(k store.Kind, name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.recs[k][name]; ok {
		return append([]byte(nil), b...), nil
	}
	return nil, nil
}

func (m *memStorage) Records(k store.Kind, check func(store.Record) error) []store.Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []store.Record
	for name, b := range m.recs[k] {
		rec := store.Record{Name: name, Data: append([]byte(nil), b...)}
		if check != nil && check(rec) != nil {
			if m.quarantined[k] == nil {
				m.quarantined[k] = make(map[string][]byte)
			}
			m.quarantined[k][name] = b
			delete(m.recs[k], name)
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (m *memStorage) QuarantineRecord(k store.Kind, name string, cause error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.recs[k][name]; ok {
		if m.quarantined[k] == nil {
			m.quarantined[k] = make(map[string][]byte)
		}
		m.quarantined[k][name] = b
		delete(m.recs[k], name)
	}
}

func (m *memStorage) RemoveRecord(k store.Kind, name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.recs[k], name)
}

// faultStorage wraps a Storage with an injectable cursor-write fault:
// onWrite, when set, runs before every rewrite of an existing fleet
// record — each tick's cursor write, not the registration that creates
// it — and may fail it (return an error) or stall it (block), as a sick
// disk would.
type faultStorage struct {
	Storage
	onWrite func(name string) error
}

func (f faultStorage) PutRecord(k store.Kind, name string, data []byte) error {
	if k == store.KindFleet && f.onWrite != nil {
		if old, _ := f.Storage.ReadRecord(k, name); old != nil {
			if err := f.onWrite(name); err != nil {
				return err
			}
		}
	}
	return f.Storage.PutRecord(k, name, data)
}

// cursorOf reads the cursor a fleet's record carries, or -1 when there
// is no record or it has no cursor.
func cursorOf(t testing.TB, st Storage, name string) int {
	t.Helper()
	data, err := st.ReadRecord(store.KindFleet, name)
	if err != nil || data == nil {
		return -1
	}
	var fr fleetRecord
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatalf("fleet record %q: %v", data, err)
	}
	if fr.Cursor == nil {
		return -1
	}
	return *fr.Cursor
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

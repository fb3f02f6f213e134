package fleetops

import (
	"testing"
	"time"

	"penelope/internal/store"
)

// FuzzRecoverRegistration boots a scheduler over a fleet registration
// record holding arbitrary bytes, as a restart reads one from disk. It
// must never panic, and the record must end up exactly one of resumed
// (scheduled under its record name) or quarantined: a record that is
// neither would be silently dropped on every boot.
func FuzzRecoverRegistration(f *testing.F) {
	f.Add([]byte(`{"name":"pop","fleet":"baseline","options":{"population":100},"interval":"1h"}`))
	f.Add([]byte(`{"name":"other"}`))
	f.Add([]byte(`{"name":"pop","options":{"population":1000001}}`))
	f.Add([]byte(`{"name":"pop","options":{"popul`))
	f.Add([]byte(`{"name":"pop","options":{"population":1000000,"years":2800,"epoch_days":1}}`))
	f.Add([]byte(`{"name":"pop","options":{},"cursor":-1}`))
	f.Add([]byte(`{"name":"pop","options":{},"cursor":1000000}`))

	cfg := testConfig(0.1, 0, 0.05)
	cfg.Population = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		storage := newMemStorage()
		storage.PutRecord(store.KindFleet, "pop", data)
		sc := NewScheduler(Config{Builder: testBuilder(cfg), Storage: storage, DefaultInterval: time.Hour})
		resumed := sc.Recover()
		sc.Close(time.Second)

		storage.mu.Lock()
		quarantined := len(storage.quarantined[store.KindFleet])
		storage.mu.Unlock()
		if resumed+quarantined != 1 {
			t.Fatalf("%d resumed + %d quarantined records, want 1 in all", resumed, quarantined)
		}
		if _, ok := sc.Get("pop"); ok != (resumed == 1) {
			t.Fatalf("resumed %d, but Get finds the record's fleet: %v", resumed, ok)
		}
	})
}

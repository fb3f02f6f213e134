package fleetops

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"penelope/internal/lifetime"
	"penelope/internal/store"
)

// TestSchedulerRecoversBadCheckpoint boots a fleet whose checkpoint
// record cannot resume it: garbage bytes, or a well-formed snapshot
// written for a different engine config. Either way the record is
// quarantined, the fleet starts over from its registration, a state
// event says so, and the fleet finishes with exactly the rows of a
// fresh run instead of failing every tick in quarantine. The restart is
// still announced when the first tick after the quarantine fails — its
// builder hands back a config the engine rejects — and a later one
// builds the fleet afresh.
func TestSchedulerRecoversBadCheckpoint(t *testing.T) {
	cfg := testConfig(0.5, 0, 0.08)
	ref, err := lifetime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run(1)

	other := cfg
	other.Seed++
	stale, err := lifetime.New(other)
	if err != nil {
		t.Fatal(err)
	}
	stale.Step(1)
	staleSnap, err := stale.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		ckpt      []byte
		failFirst bool
	}{
		{"garbage", []byte("not a fleet checkpoint"), false},
		{"other-config", staleSnap, false},
		{"first-tick-fails", []byte("not a fleet checkpoint"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			storage := newMemStorage()
			reg, _ := json.Marshal(Registration{Name: "pop", EpochsPerTick: 2})
			storage.PutRecord(store.KindFleet, "pop", reg)
			storage.PutRecord(store.KindFleetCheckpoint, "pop", tc.ckpt)

			bus := NewBus(0)
			sub := bus.Subscribe(FleetTopic("pop"), 0, 256)
			defer sub.Close()
			bus.Touch(FleetTopic("pop"))
			scCfg := fastCfg(cfg)
			scCfg.Storage = storage
			scCfg.Bus = bus
			wantFailures := uint64(0)
			if tc.failFirst {
				wantFailures = 1
				builds := 0
				scCfg.Builder = func(Registration) (lifetime.Config, error) {
					if builds++; builds == 1 {
						return lifetime.Config{}, nil // New rejects it
					}
					return cfg, nil
				}
			}
			sc := NewScheduler(scCfg)
			defer sc.Close(time.Second)
			if n := sc.Recover(); n != 1 {
				t.Fatalf("Recover resumed %d fleets, want 1", n)
			}
			if !waitFor(10*time.Second, func() bool {
				st, ok := sc.Get("pop")
				return ok && st.State == StateDone
			}) {
				st, _ := sc.Get("pop")
				t.Fatalf("fleet with a bad checkpoint never finished: %+v", st)
			}
			if st, _ := sc.Get("pop"); st.Resumed || st.TickFailures != wantFailures {
				t.Errorf("status %+v: want a fresh start with %d failed ticks", st, wantFailures)
			}
			storage.mu.Lock()
			_, quarantined := storage.quarantined[store.KindFleetCheckpoint]["pop"]
			storage.mu.Unlock()
			if !quarantined {
				t.Error("bad checkpoint record was not quarantined")
			}

			var rows []lifetime.EpochStats
			restarted := false
			for done := false; !done; {
				select {
				case ev := <-sub.C():
					switch ev.Type {
					case "epoch":
						var e EpochEvent
						if err := json.Unmarshal(ev.Data, &e); err != nil {
							t.Fatal(err)
						}
						rows = append(rows, e.EpochStats)
					case "state":
						var se StateEvent
						if err := json.Unmarshal(ev.Data, &se); err != nil {
							t.Fatal(err)
						}
						if strings.Contains(se.Reason, "checkpoint") && se.Epoch == 0 {
							restarted = true
						}
						done = se.State == StateDone
					}
				case <-time.After(2 * time.Second):
					t.Fatal("no terminal state event")
				}
			}
			if !restarted {
				t.Error("no state event announced the restart from the registration")
			}
			if !reflect.DeepEqual(rows, want) {
				t.Errorf("rows after the restart differ from a fresh fleet:\n got %+v\nwant %+v", rows, want)
			}
		})
	}
}

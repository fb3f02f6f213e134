package fleetops

import (
	"encoding/json"
	"testing"
	"time"

	"penelope/internal/lifetime"
	"penelope/internal/store"
	"penelope/internal/store/vfs"
)

// collect reads a fleet topic until its terminal state event and
// returns the epoch rows it carried.
func collect(t *testing.T, sub *Subscription) []lifetime.EpochStats {
	t.Helper()
	var rows []lifetime.EpochStats
	for {
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
				if se.State == StateDone {
					return rows
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no terminal state event after %d epoch rows", len(rows))
		}
	}
}

// sameRows compares epoch rows as their JSON bytes, the form the bus
// carries them in.
func sameRows(t *testing.T, got, want []lifetime.EpochStats) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("epoch rows differ from an uninterrupted fleet's:\n got %s\nwant %s", g, w)
	}
}

// TestRecoverMigratesLegacyCheckpoint boots over a data dir written
// before fleets kept cursors: a registration record without one, and
// the fleet's engine checkpoint (a raw Engine.Snapshot) beside it.
// Recover takes the checkpoint's epoch k as the cursor, writes it into
// the record and removes the checkpoint; the fleet then publishes only
// the rows after k, equal to an uninterrupted fleet's. A checkpoint
// written for other options gives only its epoch — the fleet replays
// its own registration — and the cursor survives a failed first tick. A
// checkpoint that does not decode is quarantined and the fleet starts
// at epoch 0.
func TestRecoverMigratesLegacyCheckpoint(t *testing.T) {
	cfg := testConfig(0.5, 0, 0.08)
	ref, err := lifetime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run(1)
	const k = 3
	snapshotAt := func(cfg lifetime.Config) []byte {
		eng, err := lifetime.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for eng.Epoch() < k {
			eng.Step(1)
		}
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	other := cfg
	other.Seed++

	for _, tc := range []struct {
		name      string
		ckpt      []byte
		cursor    int
		failFirst bool
	}{
		{"resume", snapshotAt(cfg), k, false},
		{"other-config", snapshotAt(other), k, false},
		{"first-tick-fails", snapshotAt(cfg), k, true},
		{"garbage", []byte("not a fleet checkpoint"), 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			storage := newMemStorage()
			storage.PutRecord(store.KindFleet, "pop", []byte(`{"name":"pop","options":{},"epochs_per_tick":2}`))
			storage.PutRecord(store.KindFleetCheckpoint, "pop", tc.ckpt)

			bus := NewBus()
			sub := subscribe(bus, FleetTopic("pop"), 0, 256)
			defer sub.Close()
			bus.Touch(FleetTopic("pop"))
			scCfg := fastCfg(cfg)
			scCfg.Storage = storage
			scCfg.Bus = bus
			// The first build waits until the migration is checked, so
			// the record still holds the migrated cursor.
			migrated := make(chan struct{})
			builds := 0
			scCfg.Builder = func(Registration) (lifetime.Config, error) {
				if builds++; builds == 1 {
					<-migrated
					if tc.failFirst {
						return lifetime.Config{}, nil // New rejects it
					}
				}
				return cfg, nil
			}
			sc := NewScheduler(scCfg)
			defer sc.Close(time.Second)
			if n := sc.Recover(); n != 1 {
				t.Fatalf("Recover resumed %d fleets, want 1", n)
			}
			if c := cursorOf(t, storage, "pop"); c != tc.cursor && !(tc.cursor == 0 && c == -1) {
				t.Errorf("record cursor after Recover = %d, want %d", c, tc.cursor)
			}
			storage.mu.Lock()
			_, kept := storage.recs[store.KindFleetCheckpoint]["pop"]
			_, quarantined := storage.quarantined[store.KindFleetCheckpoint]["pop"]
			storage.mu.Unlock()
			if kept {
				t.Error("legacy checkpoint record survived Recover")
			}
			if quarantined != (tc.cursor == 0) {
				t.Errorf("legacy checkpoint quarantined = %v, want %v", quarantined, tc.cursor == 0)
			}
			close(migrated)

			rows := collect(t, sub)
			sameRows(t, rows, want[tc.cursor:])
			wantFailures := uint64(0)
			if tc.failFirst {
				wantFailures = 1
			}
			if st, _ := sc.Get("pop"); st.Resumed != (tc.cursor > 0) || st.TickFailures != wantFailures {
				t.Errorf("status %+v: want resumed %v with %d failed ticks", st, tc.cursor > 0, wantFailures)
			}
		})
	}
}

// TestSchedulerCrashResumesAtCursor runs a fleet on a store over a real
// data dir, freezes the dir mid-run as a power loss would — the
// scheduler is dropped without Close — and reboots a new scheduler
// over the same dir. Every row published before the crash lies below
// the persisted cursor; the rebooted fleet publishes only rows from the
// cursor on; and the rows before the cursor plus the rebooted ones
// equal an uninterrupted fleet's byte for byte.
func TestSchedulerCrashResumesAtCursor(t *testing.T) {
	cfg := testConfig(3, 0, 0.05)
	ref, err := lifetime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run(2)

	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS{})
	st1, err := store.OpenConfig(store.Config{Dir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := NewBus()
	sub1 := subscribe(bus1, FleetTopic("pop"), 0, 1024)
	defer sub1.Close()
	bus1.Touch(FleetTopic("pop"))
	scCfg := fastCfg(cfg)
	scCfg.Storage = st1
	scCfg.Bus = bus1
	sc1 := NewScheduler(scCfg)
	defer sc1.Close(time.Second) // only after the crash: every write fails
	if _, err := sc1.Register(Registration{Name: "pop"}); err != nil {
		t.Fatalf("Register: %v", err)
	}

	var rows1 []lifetime.EpochStats
	next := func() {
		t.Helper()
		for {
			select {
			case ev := <-sub1.C():
				if ev.Type != "epoch" {
					continue
				}
				var e EpochEvent
				if err := json.Unmarshal(ev.Data, &e); err != nil {
					t.Fatal(err)
				}
				rows1 = append(rows1, e.EpochStats)
				return
			case <-time.After(5 * time.Second):
				t.Fatalf("no epoch event after %d", len(rows1))
			}
		}
	}
	for len(rows1) < 3 {
		next()
	}
	published := len(rows1)
	// Freeze the tree at the next I/O step. The fleet keeps ticking, so
	// one of the armed steps is reached.
	for !fsys.Crashed() {
		fsys.CrashAt(fsys.Steps())
		time.Sleep(time.Millisecond)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cursor := cursorOf(t, st2, "pop")
	if cursor < published {
		t.Fatalf("persisted cursor %d, but %d epochs were published before the crash", cursor, published)
	}
	if cursor >= len(want) {
		t.Fatalf("crash landed after the schedule ended (cursor %d)", cursor)
	}
	// The dropped scheduler published every row below the cursor right
	// after persisting it.
	for len(rows1) < cursor {
		next()
	}

	bus2 := NewBus()
	sub2 := subscribe(bus2, FleetTopic("pop"), 0, 1024)
	defer sub2.Close()
	bus2.Touch(FleetTopic("pop"))
	scCfg.Storage = st2
	scCfg.Bus = bus2
	sc2 := NewScheduler(scCfg)
	defer sc2.Close(time.Second)
	if n := sc2.Recover(); n != 1 {
		t.Fatalf("Recover resumed %d fleets, want 1", n)
	}
	rows2 := collect(t, sub2)
	for _, row := range rows2 {
		if row.Epoch < cursor {
			t.Fatalf("rebooted fleet re-published epoch %d below its cursor %d", row.Epoch, cursor)
		}
	}
	sameRows(t, append(rows1[:cursor:cursor], rows2...), want)
}

// TestRecoverCursorBounds boots over fleet records whose cursor names
// no epoch of the schedule: a negative one is quarantined like any
// record that does not validate, and one past the end leaves the fleet
// done at its last epoch without publishing a row.
func TestRecoverCursorBounds(t *testing.T) {
	cfg := testConfig(0.5, 0, 0.08)
	storage := newMemStorage()
	storage.PutRecord(store.KindFleet, "neg", []byte(`{"name":"neg","options":{},"cursor":-1}`))
	storage.PutRecord(store.KindFleet, "past", []byte(`{"name":"past","options":{},"cursor":1000000}`))
	bus := NewBus()
	sub := subscribe(bus, FleetTopic("past"), 0, 256)
	defer sub.Close()
	bus.Touch(FleetTopic("past"))
	scCfg := fastCfg(cfg)
	scCfg.Storage = storage
	scCfg.Bus = bus
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)

	if n := sc.Recover(); n != 1 {
		t.Fatalf("Recover resumed %d fleets, want 1", n)
	}
	storage.mu.Lock()
	_, quarantined := storage.quarantined[store.KindFleet]["neg"]
	storage.mu.Unlock()
	if !quarantined {
		t.Error("record with a negative cursor was not quarantined")
	}
	if rows := collect(t, sub); len(rows) != 0 {
		t.Errorf("fleet recovered past its schedule published %d rows", len(rows))
	}
	if st, _ := sc.Get("past"); st.State != StateDone || st.Epoch != st.TotalEpochs || st.TotalEpochs == 0 {
		t.Errorf("status %+v: want done at its last epoch", st)
	}
}

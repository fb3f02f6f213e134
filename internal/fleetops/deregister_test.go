package fleetops

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"penelope/internal/lifetime"
	"penelope/internal/store"
)

// TestDeregisterStopsInFlightTick deregisters a population while its
// tick is in flight, on a real store. The second tick's cursor write
// stalls until after Deregister has been called — the late write that
// would rewrite fleets/<name>.fleet after its removal and re-create the
// dropped bus topic. After Deregister returns, no record of the fleet
// is left, its topic is gone, and re-registering the name starts a
// fresh engine at epoch 0.
func TestDeregisterStopsInFlightTick(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus()
	var writes atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})

	scCfg := fastCfg(testConfig(3, 0, 0.05))
	scCfg.Storage = faultStorage{Storage: st, onWrite: func(string) error {
		if writes.Add(1) == 2 {
			close(entered)
			<-release
		}
		return nil
	}}
	scCfg.Bus = bus
	scCfg.tickTimeout = time.Minute // the watchdog must not be what ends the tick
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)

	if _, err := sc.Register(Registration{Name: "pop"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	<-entered // the first tick persisted cursor 1; the second is in flight
	if c := cursorOf(t, st, "pop"); c != 1 {
		t.Fatalf("cursor before deregistration = %d, want 1", c)
	}
	go func() {
		time.Sleep(5 * time.Millisecond) // Deregister is waiting by now
		close(release)
	}()
	if err := sc.Deregister("pop"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	gone := func(when string) {
		t.Helper()
		for _, f := range []string{"pop.fleet", ".tmp-pop.fleet", "pop.ckpt"} {
			if _, err := os.Stat(filepath.Join(dir, "fleets", f)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: fleets/%s survived deregistration (%v)", when, f, err)
			}
		}
		if bus.HasTopic(FleetTopic("pop")) {
			t.Errorf("%s: deregistered topic exists", when)
		}
	}
	gone("on return")
	time.Sleep(20 * time.Millisecond) // room for any straggler to misbehave
	gone("after a pause")

	stat, err := sc.Register(Registration{Name: "pop"})
	if err != nil {
		t.Fatalf("re-Register: %v", err)
	}
	if !waitFor(5*time.Second, func() bool {
		stat, _ = sc.Get("pop")
		return stat.Epoch >= 1
	}) {
		t.Fatalf("re-registered population never ticked: %+v", stat)
	}
	// The re-created topic holds only the new registration's events; its
	// first epoch row says where the engine started.
	sub := subscribe(bus, FleetTopic("pop"), 0, 0)
	defer sub.Close()
	firstEpoch := -1
	for firstEpoch < 0 {
		if ev := <-sub.C(); ev.Type == "epoch" {
			var e EpochEvent
			if err := json.Unmarshal(ev.Data, &e); err != nil {
				t.Fatal(err)
			}
			firstEpoch = e.Epoch
		}
	}
	if firstEpoch != 0 || stat.Resumed {
		t.Errorf("re-registered population started at epoch %d (resumed %v), want a fresh engine at 0", firstEpoch, stat.Resumed)
	}
}

// failRegStorage is a memStorage whose registration writes fail while
// fail is set.
type failRegStorage struct {
	*memStorage
	fail atomic.Bool
}

func (f *failRegStorage) PutRecord(k store.Kind, name string, data []byte) error {
	if k == store.KindFleet && f.fail.Load() {
		return errors.New("disk full")
	}
	return f.memStorage.PutRecord(k, name, data)
}

// TestRegisterPersistFailure requires a registration whose record
// cannot be written to be refused with ErrPersist and leave nothing
// scheduled: a fleet reported as registered must survive a restart.
func TestRegisterPersistFailure(t *testing.T) {
	var ticks atomic.Int64
	cfg := testConfig(0.5, 0, 0.05)
	scCfg := fastCfg(cfg)
	failing := &failRegStorage{memStorage: newMemStorage()}
	failing.fail.Store(true)
	scCfg.Storage = failing
	bus := NewBus()
	scCfg.Bus = bus
	scCfg.Builder = func(Registration) (lifetime.Config, error) { // every tick without an engine calls it
		ticks.Add(1)
		return cfg, nil
	}
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)

	_, err := sc.Register(Registration{Name: "pop"})
	if !errors.Is(err, ErrPersist) {
		t.Fatalf("Register = %v, want ErrPersist", err)
	}
	if _, ok := sc.Get("pop"); ok || len(sc.List()) != 0 {
		t.Error("unpersisted registration is scheduled")
	}
	if bus.HasTopic(FleetTopic("pop")) {
		t.Error("unpersisted registration opened a topic")
	}
	time.Sleep(20 * time.Millisecond)
	if n := ticks.Load(); n != 0 {
		t.Errorf("unpersisted registration ticked %d times", n)
	}

	// The name is not left reserved: once writes work, it registers.
	failing.fail.Store(false)
	if _, err := sc.Register(Registration{Name: "pop"}); err != nil {
		t.Fatalf("Register on healthy storage: %v", err)
	}
	if rec, _ := failing.ReadRecord(store.KindFleet, "pop"); rec == nil {
		t.Error("registration record missing")
	}
}

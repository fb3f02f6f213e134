package fleetops

import (
	"context"
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
// tick is in flight, on a real store. The tick hook blocks until
// Deregister is about to be called and then reports success — the
// late tick that used to rewrite fleets/<name>.ckpt after its removal
// and re-create the dropped bus topic. After Deregister returns, no
// record of the fleet is left, its topic is gone, and re-registering
// the name starts a fresh engine at epoch 0.
func TestDeregisterStopsInFlightTick(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus(0)
	var blocking atomic.Bool
	blocking.Store(true)
	entered := make(chan struct{})
	release := make(chan struct{})
	var firstEpoch atomic.Int64
	firstEpoch.Store(-1)

	scCfg := fastCfg(testConfig(3, 0, 0.05))
	scCfg.Storage = st
	scCfg.Bus = bus
	scCfg.TickTimeout = time.Minute // the watchdog must not be what ends the tick
	scCfg.Tick = func(ctx context.Context, name string, eng *lifetime.Engine) error {
		if !blocking.Load() {
			firstEpoch.CompareAndSwap(-1, int64(eng.Epoch()))
			eng.Step(1)
			return nil
		}
		eng.Step(1)
		if eng.Epoch() == 2 {
			close(entered)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return nil
	}
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)

	if _, err := sc.Register(Registration{Name: "pop"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	<-entered // the first tick checkpointed epoch 1; the second is in flight
	if _, err := os.Stat(filepath.Join(dir, "fleets", "pop.ckpt")); err != nil {
		t.Fatalf("no checkpoint before deregistration: %v", err)
	}
	close(release)
	if err := sc.Deregister("pop"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	gone := func(when string) {
		t.Helper()
		for _, f := range []string{"pop.fleet", "pop.ckpt", ".tmp-pop.ckpt"} {
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

	blocking.Store(false)
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
	if got := firstEpoch.Load(); got != 0 || stat.Resumed {
		t.Errorf("re-registered population started at epoch %d (resumed %v), want a fresh engine at 0", got, stat.Resumed)
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
	scCfg := fastCfg(testConfig(0.5, 0, 0.05))
	failing := &failRegStorage{memStorage: newMemStorage()}
	failing.fail.Store(true)
	scCfg.Storage = failing
	bus := NewBus(0)
	scCfg.Bus = bus
	scCfg.Tick = func(ctx context.Context, name string, eng *lifetime.Engine) error {
		ticks.Add(1)
		return nil
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

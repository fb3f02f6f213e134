package fleetops

import (
	"errors"
	"testing"
	"time"
)

// TestCheckpointFailuresCounted requires failed fleet checkpoint writes
// to surface in the scheduler stats instead of being swallowed: the
// population keeps aging, but the operator can see that a restart would
// rewind it.
func TestCheckpointFailuresCounted(t *testing.T) {
	cfg := testConfig(0.5, 0, 0.05)
	scCfg := fastCfg(cfg)
	scCfg.Storage = faultStorage{Storage: newMemStorage(), onWrite: func(string) error {
		return errors.New("disk full") // a full disk under the fleet tier
	}}
	sc := NewScheduler(scCfg)
	defer sc.Close(time.Second)

	if _, err := sc.Register(Registration{Name: "pop", EpochsPerTick: 2}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !waitFor(5*time.Second, func() bool {
		st, ok := sc.Get("pop")
		return ok && st.State == StateDone
	}) {
		t.Fatal("population never finished")
	}
	st := sc.Stats()
	if st.CheckpointFailures == 0 {
		t.Error("checkpoint write failures not counted")
	}
	if st.TickFailures != 0 {
		t.Errorf("checkpoint failures must not fail ticks (tick failures = %d)", st.TickFailures)
	}
}

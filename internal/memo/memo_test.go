package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// identity charges an int64 value its own magnitude, so tests can
// dictate sizes directly.
func identity(v int64) int64 { return v }

// waitDedups blocks until n callers have attached to in-flight entries.
func waitDedups(t *testing.T, m *Memo[string, int64], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().InflightDedups < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers attached", m.Stats().InflightDedups, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConcurrentFirstCallersComputeOnce(t *testing.T) {
	m := New[string, int64](1<<20, identity)
	const n = 32
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := m.Do("k", func() (int64, error) {
				calls.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	waitDedups(t, m, n-1)
	close(release)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("%d computations for one key, want 1", c)
	}
	for i, v := range got {
		if v != 7 {
			t.Fatalf("caller %d got %d, want 7", i, v)
		}
	}
	st := m.Stats()
	if st.Misses != 1 || st.InflightDedups != n-1 || st.Entries != 1 || st.Bytes != 7 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := m.Do("k", nil); err != nil || m.Stats().Hits != 1 {
		t.Fatalf("resident key not a hit: err %v, stats %+v", err, m.Stats())
	}
}

func put(t *testing.T, m *Memo[string, int64], key string, v int64) {
	t.Helper()
	if _, err := m.Do(key, func() (int64, error) { return v, nil }); err != nil {
		t.Fatal(err)
	}
}

func resident(m *Memo[string, int64], key string) bool {
	_, ok := m.Get(key)
	return ok
}

func TestEvictsLeastRecentlyUsedByBytes(t *testing.T) {
	m := New[string, int64](10, identity)
	put(t, m, "a", 4)
	put(t, m, "b", 4)
	resident(m, "a") // a is now more recent than b
	put(t, m, "c", 4)
	if resident(m, "b") {
		t.Fatal("least recently used entry survived past the budget")
	}
	if !resident(m, "a") || !resident(m, "c") {
		t.Fatal("recently used entries were evicted")
	}
	// One large value displaces as many small ones as its bytes need:
	// recency is now c, a (a was read last).
	put(t, m, "d", 8)
	if resident(m, "c") || resident(m, "a") || !resident(m, "d") {
		t.Fatal("large value did not evict by bytes")
	}
	st := m.Stats()
	if st.Entries != 1 || st.Bytes != 8 || st.Evictions != 3 {
		t.Fatalf("stats %+v", st)
	}
	// A hit through Acquire also refreshes recency.
	put(t, m, "e", 1)
	if _, _, ready := m.Acquire("d"); !ready {
		t.Fatal("resident d not ready")
	}
	put(t, m, "f", 2)
	if resident(m, "e") || !resident(m, "d") {
		t.Fatal("Acquire hit did not refresh recency")
	}
}

func TestInflightEntriesSurviveBudgetPressure(t *testing.T) {
	m := New[string, int64](10, identity)
	slow, leader, _ := m.Acquire("slow")
	if !leader {
		t.Fatal("first Acquire not the leader")
	}
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		put(t, m, k, 6)
	}
	if _, leader, ready := m.Acquire("slow"); leader || ready {
		t.Fatalf("in-flight entry lost under pressure: leader %v ready %v", leader, ready)
	}
	m.Complete(slow, 3, nil)
	if v, err := slow.Wait(); v != 3 || err != nil {
		t.Fatalf("Wait = %d, %v", v, err)
	}
	if st := m.Stats(); st.Bytes > 10 {
		t.Fatalf("resident bytes %d over budget", st.Bytes)
	}
}

func TestOversizeValueServedNotRetained(t *testing.T) {
	m := New[string, int64](10, identity)
	put(t, m, "small", 5)
	e, _, _ := m.Acquire("big")
	w, leader, ready := m.Acquire("big")
	if leader || ready || w != e {
		t.Fatal("second caller did not attach to the in-flight entry")
	}
	m.Complete(e, 11, nil)
	if v, err := w.Wait(); v != 11 || err != nil {
		t.Fatalf("waiter got %d, %v", v, err)
	}
	if resident(m, "big") {
		t.Fatal("value larger than the budget was retained")
	}
	if !resident(m, "small") {
		t.Fatal("oversize value evicted an entry it never displaced")
	}
	if _, leader, _ := m.Acquire("big"); !leader {
		t.Fatal("dropped oversize key did not recompute")
	}
	if st := m.Stats(); st.Entries != 1 || st.Bytes != 5 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// leaderAndWaiter runs fn as the leader for "k" in one goroutine and a
// waiter in another, and returns the waiter's outcome once the leader
// has finished.
func leaderAndWaiter(t *testing.T, m *Memo[string, int64], fn func() (int64, error)) (int64, error) {
	t.Helper()
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() { recover() }()
		m.Do("k", func() (int64, error) {
			<-release
			return fn()
		})
	}()
	// Wait for the leader to hold the entry before attaching.
	for m.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	type outcome struct {
		v   int64
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		v, err := m.Do("k", func() (int64, error) { return 0, errors.New("waiter computed") })
		waiter <- outcome{v, err}
	}()
	waitDedups(t, m, 1)
	close(release)
	<-leaderDone
	select {
	case out := <-waiter:
		return out.v, out.err
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the leader finished")
		return 0, nil
	}
}

func TestFailedLeaderReleasesWaiters(t *testing.T) {
	m := New[string, int64](10, identity)
	boom := errors.New("boom")
	if _, err := leaderAndWaiter(t, m, func() (int64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want the leader's", err)
	}
	if v, err := m.Do("k", func() (int64, error) { return 4, nil }); v != 4 || err != nil {
		t.Fatalf("retry after failure = %d, %v", v, err)
	}
}

func TestPanickingLeaderReleasesWaiters(t *testing.T) {
	m := New[string, int64](10, identity)
	_, err := leaderAndWaiter(t, m, func() (int64, error) { panic("driver bug") })
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("waiter err = %v, want ErrPanicked", err)
	}
	if v, err := m.Do("k", func() (int64, error) { return 4, nil }); v != 4 || err != nil {
		t.Fatalf("retry after panic = %d, %v", v, err)
	}
}

func TestLeaderPanicPropagates(t *testing.T) {
	m := New[string, int64](10, identity)
	defer func() {
		if r := recover(); r != "driver bug" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
	}()
	m.Do("k", func() (int64, error) { panic("driver bug") })
}

// TestDoIfReplacesValuesThatFallShort checks DoIf's two paths past a
// rejected value: a resident one is replaced in place, charged anew, and
// a waiter whose leader's value falls short leads a computation of its
// own instead of returning it.
func TestDoIfReplacesValuesThatFallShort(t *testing.T) {
	m := New[string, int64](10, identity)
	atLeast := func(n int64) func(int64) bool { return func(v int64) bool { return v >= n } }
	put(t, m, "k", 3)
	if v, err := m.DoIf("k", atLeast(2), nil); v != 3 || err != nil {
		t.Fatalf("fitting resident value = %d, %v", v, err)
	}
	if v, _ := m.DoIf("k", atLeast(5), func() (int64, error) { return 5, nil }); v != 5 {
		t.Fatalf("short resident value not replaced: got %d", v)
	}
	// The rejected value was found resident, so it counts as a hit.
	if st := m.Stats(); st.Entries != 1 || st.Bytes != 5 || st.Misses != 2 || st.Hits != 2 || st.Evictions != 0 {
		t.Fatalf("after replacement: stats %+v", st)
	}

	release := make(chan struct{})
	leader := make(chan int64)
	go func() {
		v, _ := m.DoIf("w", atLeast(1), func() (int64, error) { <-release; return 1, nil })
		leader <- v
	}()
	waitMisses(t, m, 3)
	waiter := make(chan int64)
	go func() {
		v, _ := m.DoIf("w", atLeast(4), func() (int64, error) { return 4, nil })
		waiter <- v
	}()
	waitDedups(t, m, 1)
	close(release)
	if v := <-leader; v != 1 {
		t.Fatalf("leader got %d, want 1", v)
	}
	if v := <-waiter; v != 4 {
		t.Fatalf("waiter accepted %d, want its own 4", v)
	}
	if v, ok := m.Get("w"); !ok || v != 4 {
		t.Fatalf("resident w = %d, %v; want 4", v, ok)
	}
}

// waitMisses blocks until n callers have led computations.
func waitMisses(t *testing.T, m *Memo[string, int64], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Misses < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d leaders started", m.Stats().Misses, n)
		}
		time.Sleep(time.Millisecond)
	}
}

package service

import (
	"sync"
	"testing"
	"time"
)

// TestFairPoolRoundRobin floods one client's queue, then enqueues a
// single job from a second client, and requires the single job to run
// next — not behind the flood — because workers drain clients
// round-robin rather than FIFO.
func TestFairPoolRoundRobin(t *testing.T) {
	p := newFairPool(1, 64)
	defer p.close()

	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	record := func(who string) func() {
		return func() {
			<-gate
			mu.Lock()
			order = append(order, who)
			mu.Unlock()
		}
	}

	// The worker picks up the first flood job and blocks on the gate;
	// everything enqueued after that sits in the queues.
	if err := p.submit("flood", record("flood")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.queueDepth() == 0 })
	for i := 0; i < 10; i++ {
		if err := p.submit("flood", record("flood")); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.submit("polite", record("polite")); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitFor(t, func() bool { return p.queueDepth() == 0 })
	p.close()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 12 {
		t.Fatalf("ran %d tasks, want 12", len(order))
	}
	// The polite client's one job must run within the first round of
	// turns after the in-flight flood job, not behind the whole backlog.
	pos := -1
	for i, who := range order {
		if who == "polite" {
			pos = i
		}
	}
	if pos > 2 {
		t.Errorf("polite client's job ran at position %d behind the flood (order %v)", pos, order)
	}
}

// TestFairPoolBounds checks the depth bound and the shutdown error.
func TestFairPoolBounds(t *testing.T) {
	p := newFairPool(1, 2)
	gate := make(chan struct{})
	block := func() { <-gate }
	if err := p.submit("a", block); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.queueDepth() == 0 })
	if err := p.submit("a", block); err != nil {
		t.Fatal(err)
	}
	if err := p.submit("b", block); err != nil {
		t.Fatal(err)
	}
	if err := p.submit("c", func() {}); err != errQueueFull {
		t.Fatalf("overflow submit: err = %v, want errQueueFull", err)
	}
	close(gate)
	p.close()
	if err := p.submit("a", func() {}); err != errShuttingDown {
		t.Fatalf("submit after close: err = %v, want errShuttingDown", err)
	}
}

// TestRateLimiterBuckets drives the token bucket with a fake clock:
// burst spends, refill restores, and clients do not share buckets.
func TestRateLimiterBuckets(t *testing.T) {
	l := newRateLimiter(2, 3)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !l.allow("a", 1) {
			t.Fatalf("burst spend %d refused", i)
		}
	}
	if l.allow("a", 1) {
		t.Fatal("allowed past burst without refill")
	}
	if !l.allow("b", 1) {
		t.Fatal("client b blocked by client a's empty bucket")
	}
	if wait := l.retryAfter("a", 1); wait <= 0 || wait > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s] at 2 tokens/s", wait)
	}

	now = now.Add(time.Second) // refills 2 tokens
	if !l.allow("a", 2) {
		t.Fatal("refill did not restore tokens")
	}
	if l.allow("a", 1) {
		t.Fatal("allowed more than the refill granted")
	}

	// Disabled limiter admits everything.
	open := newRateLimiter(0, 0)
	for i := 0; i < 100; i++ {
		if !open.allow("a", 1000) {
			t.Fatal("disabled limiter refused")
		}
	}
}

// TestBackoffController checks the shedding thresholds and the
// Retry-After clamp.
func TestBackoffController(t *testing.T) {
	b := newBackoffController()
	if !b.admit(10, 100) {
		t.Error("admission refused below high water")
	}
	if b.admit(100, 100) {
		t.Error("admission granted at a full queue")
	}
	if got := b.shedCount(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
	// Between high water and full, admission is probabilistic; over many
	// trials both outcomes must occur.
	admitted, refused := 0, 0
	for i := 0; i < 500; i++ {
		if b.admit(90, 100) {
			admitted++
		} else {
			refused++
		}
	}
	if admitted == 0 || refused == 0 {
		t.Errorf("progressive shedding degenerate: %d admitted, %d refused", admitted, refused)
	}

	b.observe(2 * time.Second)
	if got := b.retryAfter(9, 2); got < 5*time.Second || got > 20*time.Second {
		t.Errorf("retryAfter(9 deep, 2 workers, ~2s svc) = %v, want ~10s", got)
	}
	if got := b.retryAfter(0, 8); got < time.Second {
		t.Errorf("retryAfter floor violated: %v", got)
	}
	b.observe(10000 * time.Second)
	if got := b.retryAfter(1000, 1); got != 300*time.Second {
		t.Errorf("retryAfter ceiling violated: %v", got)
	}
}

// TestBackoffControllerSheddingReplays checks progressive shedding is
// deterministic: two controllers fed the same depth sequence shed
// exactly the same submissions, at a rate near the configured slope.
func TestBackoffControllerSheddingReplays(t *testing.T) {
	a, b := newBackoffController(), newBackoffController()
	shed := 0
	for i := 0; i < 2000; i++ {
		depth := 70 + i%31 // sweeps 0.70..1.00 of the queue
		got, want := a.admit(depth, 100), b.admit(depth, 100)
		if got != want {
			t.Fatalf("submission %d at depth %d: controllers disagree (%v vs %v)", i, depth, got, want)
		}
		if !got {
			shed++
		}
	}
	if a.shedCount() != b.shedCount() || a.shedCount() != uint64(shed) {
		t.Fatalf("shed counts %d and %d, want %d", a.shedCount(), b.shedCount(), shed)
	}
	// Expected refusals: 13 of every 31 depths (~840 of 2000); a stuck
	// or degenerate draw misses by far more than the tolerance.
	if shed < 740 || shed > 940 {
		t.Errorf("shed %d of 2000, want about 840", shed)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

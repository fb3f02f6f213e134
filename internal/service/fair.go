package service

import (
	"math"
	"sync"
	"time"

	"penelope/internal/mix"
)

// This file is the admission-control and fairness layer of the server:
// a per-client round-robin work queue (so one flooding client cannot
// starve the others behind a FIFO), per-client token-bucket rate
// limiting (429 + Retry-After for clients submitting faster than their
// budget), and a backoff controller that turns queue depth and observed
// service time into honest Retry-After hints and progressive load
// shedding instead of a cliff-edge reject at the queue bound.

// fairPool replaces the single FIFO channel of the original worker
// pool: each client gets its own pending queue, and workers drain the
// clients round-robin, one job per turn (deficit round-robin with a
// unit quantum — jobs are single simulations, so equal turn counts are
// equal shares). A greedy client's backlog therefore delays only
// itself; a client with one queued job waits at most one full turn of
// the active clients, not the whole backlog.
type fairPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string][]func()
	ring   []string // clients with pending work, round-robin order
	next   int      // ring cursor
	depth  int      // total queued tasks across clients
	max    int
	closed bool
	wg     sync.WaitGroup
}

// newFairPool starts `workers` goroutines draining a fair queue bounded
// at `depth` total tasks.
func newFairPool(workers, depth int) *fairPool {
	p := &fairPool{queues: make(map[string][]func()), max: depth}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

// submit enqueues fn on client's queue. It never blocks: a full queue
// returns errQueueFull and a closed pool errShuttingDown, so HTTP
// handlers fail the job instead of wedging (and never panic on a
// closed channel — there is no channel).
func (p *fairPool) submit(client string, fn func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errShuttingDown
	}
	if p.depth >= p.max {
		return errQueueFull
	}
	q, active := p.queues[client]
	if !active {
		p.ring = append(p.ring, client)
	}
	p.queues[client] = append(q, fn)
	p.depth++
	p.cond.Signal()
	return nil
}

// queueDepth returns the number of queued (not yet running) tasks.
func (p *fairPool) queueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.depth
}

// work is one worker: pick the next client in the ring, run its oldest
// task, advance the ring. Exits when the pool is closed and drained —
// queued tasks still run after close (their cache entries must
// complete), but the server's context is already cancelled, so they
// fail fast instead of simulating.
func (p *fairPool) work() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for p.depth == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.depth == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		if p.next >= len(p.ring) {
			p.next = 0
		}
		client := p.ring[p.next]
		q := p.queues[client]
		fn := q[0]
		q[0] = nil
		if len(q) == 1 {
			delete(p.queues, client)
			p.ring = append(p.ring[:p.next], p.ring[p.next+1:]...)
			// next now indexes the following client; no advance.
		} else {
			p.queues[client] = q[1:]
			p.next++
		}
		p.depth--
		p.mu.Unlock()
		fn()
		p.mu.Lock()
	}
}

// close marks the pool closed and waits for the workers to drain what
// is already queued. Safe to call once; submit after close fails with
// errShuttingDown.
func (p *fairPool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// rateLimiter is a per-client token bucket: each submission spends one
// token (sweeps spend one per grid point), buckets refill at `rate`
// tokens/second up to `burst`. rate <= 0 disables limiting.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*bucket
	now     func() time.Time // test hook
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = int(math.Ceil(rate))
		if burst < 1 {
			burst = 1
		}
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// allow spends n tokens from client's bucket if available.
func (l *rateLimiter) allow(client string, n float64) bool {
	if l == nil || l.rate <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[client]
	if !ok {
		// A full bucket is indistinguishable from an absent one, so the
		// map only holds clients below their burst; sweep refilled
		// buckets when the map grows past a bound.
		if len(l.buckets) > 4096 {
			for k, old := range l.buckets {
				if refill(old, now, l.rate, l.burst) >= l.burst {
					delete(l.buckets, k)
				}
			}
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	}
	b.tokens = refill(b, now, l.rate, l.burst)
	b.last = now
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// retryAfter returns how long client must wait for n tokens.
func (l *rateLimiter) retryAfter(client string, n float64) time.Duration {
	if l == nil || l.rate <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[client]
	if !ok {
		return 0
	}
	have := refill(b, l.now(), l.rate, l.burst)
	if have >= n {
		return 0
	}
	return time.Duration((n - have) / l.rate * float64(time.Second))
}

func refill(b *bucket, now time.Time, rate, burst float64) float64 {
	tokens := b.tokens + now.Sub(b.last).Seconds()*rate
	if tokens > burst {
		tokens = burst
	}
	return tokens
}

// backoffController turns queue pressure into backpressure signals. It
// tracks an EWMA of observed job service time, computes Retry-After
// hints from queue depth (the time until a newly rejected job would
// plausibly find a slot), and sheds load progressively once the queue
// crosses its high-water mark — the acceptance probability falls
// linearly from 1 at the high-water mark to 0 at the full queue, so an
// overloaded server degrades smoothly instead of oscillating between
// all-accept and all-reject.
type backoffController struct {
	mu       sync.Mutex
	svcTime  float64 // EWMA of job service seconds; 0 = no samples yet
	waitTime float64 // EWMA of observed queue-wait seconds; 0 = no samples yet
	draws    uint64  // shedding decisions drawn so far; keys the next one
	shed     uint64
}

// defaultServiceTime seeds Retry-After before any job has completed.
const defaultServiceTime = 500 * time.Millisecond

// queueHighWater is the queue fraction where progressive shedding
// starts and readiness degrades.
const queueHighWater = 0.75

func newBackoffController() *backoffController { return &backoffController{} }

// observe folds one completed job's service time into the EWMA.
func (b *backoffController) observe(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := d.Seconds()
	if b.svcTime == 0 {
		b.svcTime = s
	} else {
		b.svcTime = 0.8*b.svcTime + 0.2*s
	}
}

// observeWait folds one leader job's measured queue wait (submit →
// worker pickup) into the wait EWMA. The same measurement feeds the
// queue-wait histogram, so the Retry-After hint and the exported
// distribution can never disagree about what the server observed.
func (b *backoffController) observeWait(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := d.Seconds()
	if b.waitTime == 0 {
		b.waitTime = s
	} else {
		b.waitTime = 0.8*b.waitTime + 0.2*s
	}
}

// admit decides whether a submission may enqueue given the current
// queue depth. Below the high-water mark everything is admitted; above
// it, admission probability decays linearly to zero at the bound. The
// draw is keyed on the controller's own decision counter, so the same
// depth sequence sheds the same submissions in every run.
func (b *backoffController) admit(depth, max int) bool {
	if max <= 0 {
		return true
	}
	q := float64(depth) / float64(max)
	if q < queueHighWater {
		return true
	}
	if q >= 1 {
		b.mu.Lock()
		b.shed++
		b.mu.Unlock()
		return false
	}
	pReject := (q - queueHighWater) / (1 - queueHighWater)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.draws++
	if mix.Float64(mix.SplitMix64(b.draws)) < pReject {
		b.shed++
		return false
	}
	return true
}

// retryAfter estimates when a rejected submission is worth retrying:
// the time for the current backlog to drain through the workers, at
// the observed per-job service time — raised to the measured queue-wait
// EWMA when jobs are actually waiting longer than the model predicts
// (ring contention, uneven service times) — clamped to [1s, 300s].
func (b *backoffController) retryAfter(depth, workers int) time.Duration {
	b.mu.Lock()
	svc := b.svcTime
	observedWait := b.waitTime
	b.mu.Unlock()
	if svc == 0 {
		svc = defaultServiceTime.Seconds()
	}
	if workers < 1 {
		workers = 1
	}
	secs := svc * float64(depth+1) / float64(workers)
	if observedWait > secs {
		secs = observedWait
	}
	wait := time.Duration(secs * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	if wait > 300*time.Second {
		wait = 300 * time.Second
	}
	return wait
}

// shedCount returns how many submissions progressive shedding dropped.
func (b *backoffController) shedCount() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shed
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

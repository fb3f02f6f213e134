package fleetops

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"penelope/internal/lifetime"
	"penelope/internal/mix"
)

// Alert is one fired rule instance. The ID is deterministic —
// fleet/rule/epoch(/structure) — so delivery behavior keyed on it (the
// fault-injecting sink, jittered backoff) replays identically across
// runs and worker counts.
type Alert struct {
	ID        string    `json:"id"`
	Fleet     string    `json:"fleet"`
	Rule      string    `json:"rule"`
	Epoch     int       `json:"epoch"`
	Structure string    `json:"structure,omitempty"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	Message   string    `json:"message"`
	Time      time.Time `json:"time"`
}

// Rule names.
const (
	RuleP99Guardband     = "p99-guardband"
	RuleViolatedFraction = "violated-fraction"
	RuleDutyDeviation    = "duty-deviation"
)

// Sink delivers one alert attempt to its destination.
type Sink interface {
	Name() string
	Deliver(ctx context.Context, a Alert) error
}

// WebhookSink POSTs alerts as JSON to a URL; any non-2xx status is a
// delivery failure.
type WebhookSink struct {
	URL    string
	Client *http.Client
}

// Name identifies the sink in metrics and dead letters.
func (s *WebhookSink) Name() string { return "webhook:" + s.URL }

// Deliver POSTs the alert.
func (s *WebhookSink) Deliver(ctx context.Context, a Alert) error {
	body, err := json.Marshal(a)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	client := s.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("fleetops: webhook returned %s", resp.Status)
	}
	return nil
}

// breaker is a circuit breaker over consecutive sink failures: closed →
// open after threshold consecutive failures; open fast-fails deliveries
// until cooldown passes; the first delivery after that is the half-open
// probe — success closes the breaker, failure re-opens it.
type breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	consecutive int
	openUntil   time.Time
	probing     bool
	opens       uint64
}

type breakerVerdict int

const (
	breakerAllow breakerVerdict = iota
	breakerReject
)

func (b *breaker) admit(now time.Time) breakerVerdict {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return breakerAllow
	}
	if now.Before(b.openUntil) {
		return breakerReject
	}
	if b.probing {
		// Another worker already holds the half-open probe slot.
		return breakerReject
	}
	b.probing = true
	return breakerAllow
}

func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.openUntil = time.Time{}
	b.probing = false
}

func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.consecutive++
	if b.consecutive >= b.threshold {
		if b.openUntil.IsZero() || !now.Before(b.openUntil) {
			b.opens++
		}
		b.openUntil = now.Add(b.cooldown)
	}
}

func (b *breaker) state(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.openUntil.IsZero():
		return "closed"
	case now.Before(b.openUntil):
		return "open"
	default:
		return "half-open"
	}
}

// DeadLetter is an alert the pipeline gave up on, with the reason.
type DeadLetter struct {
	Alert  Alert  `json:"alert"`
	Reason string `json:"reason"`
}

// policy is the delivery pipeline's behaviour. Every Deliverer outside
// this package's tests runs deliveryPolicy; a test copies it and changes
// only the fields it needs.
type policy struct {
	workers    int           // drain the queue concurrently
	queueDepth int           // a full queue drops the alert and counts it
	timeout    time.Duration // bounds each delivery attempt
	maxRetries int           // re-attempts after the first failure
	// retry spaces the attempts: Base doubled per attempt up to Cap,
	// jitter keyed on (Seed, alert ID, attempt), so the same alert
	// retries on the same schedule in every run, whichever worker
	// carries it.
	retry            mix.Backoff
	breakerThreshold int           // consecutive failures that open the circuit
	breakerCooldown  time.Duration // how long it stays open before the half-open probe
	deadLetters      int           // retained dead letters
}

// deliveryPolicy is the one production policy.
var deliveryPolicy = policy{
	workers:          2,
	queueDepth:       256,
	timeout:          5 * time.Second,
	maxRetries:       3,
	retry:            mix.Backoff{Base: 250 * time.Millisecond, Cap: 30 * time.Second},
	breakerThreshold: 5,
	breakerCooldown:  30 * time.Second,
	deadLetters:      128,
}

// Deliverer pushes alerts through the sink with per-attempt timeout,
// retry with backoff and jitter, a circuit breaker, and a bounded
// dead-letter queue. Enqueue never blocks.
type Deliverer struct {
	sink  Sink
	ins   *Instruments
	pol   policy
	queue chan Alert
	wg    sync.WaitGroup
	brk   breaker

	mu          sync.Mutex
	closed      bool
	enqueued    uint64
	delivered   uint64
	retries     uint64
	deadTotal   uint64
	dropped     uint64
	breakerFast uint64
	deadLetters []DeadLetter
}

// NewDeliverer starts the pipeline's workers over sink. ins, when set,
// records per-attempt sink latency and delivery spans; nil costs
// nothing.
func NewDeliverer(sink Sink, ins *Instruments) *Deliverer {
	return newDeliverer(sink, ins, deliveryPolicy)
}

func newDeliverer(sink Sink, ins *Instruments, pol policy) *Deliverer {
	if sink == nil {
		panic("fleetops: NewDeliverer requires a sink")
	}
	d := &Deliverer{
		sink:  sink,
		ins:   ins,
		pol:   pol,
		queue: make(chan Alert, pol.queueDepth),
		brk:   breaker{threshold: pol.breakerThreshold, cooldown: pol.breakerCooldown},
	}
	d.wg.Add(pol.workers)
	for i := 0; i < pol.workers; i++ {
		go d.worker()
	}
	return d
}

// Enqueue hands an alert to the pipeline without blocking: a full queue
// or closed deliverer drops it (counted).
func (d *Deliverer) Enqueue(a Alert) bool {
	// The non-blocking send happens under the same lock Close holds
	// while marking the pipeline closed, so a late Enqueue racing Close
	// can never send on the already-closed channel.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.enqueued++
	select {
	case d.queue <- a:
		return true
	default:
		d.dropped++
		return false
	}
}

// Close stops intake and drains the queue — every enqueued alert is
// delivered or dead-lettered before Close returns, so counters are
// stable afterwards.
func (d *Deliverer) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.queue)
	d.wg.Wait()
}

func (d *Deliverer) worker() {
	defer d.wg.Done()
	for a := range d.queue {
		d.deliver(a)
	}
}

func (d *Deliverer) deliver(a Alert) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if d.brk.admit(time.Now()) == breakerReject {
			d.mu.Lock()
			d.breakerFast++
			d.mu.Unlock()
			reason := "circuit breaker open"
			if lastErr != nil {
				reason = fmt.Sprintf("circuit breaker open after: %v", lastErr)
			}
			d.deadLetter(a, reason)
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), d.pol.timeout)
		attemptStart := time.Now()
		err := d.sink.Deliver(ctx, a)
		cancel()
		d.ins.observeDeliver(a.ID, attempt, attemptStart, err)
		if err == nil {
			d.brk.success()
			d.mu.Lock()
			d.delivered++
			d.mu.Unlock()
			return
		}
		lastErr = err
		d.brk.failure(time.Now())
		if attempt >= d.pol.maxRetries {
			d.deadLetter(a, fmt.Sprintf("retries exhausted: %v", err))
			return
		}
		d.mu.Lock()
		d.retries++
		d.mu.Unlock()
		time.Sleep(d.pol.retry.Delay(a.ID, attempt))
	}
}

func (d *Deliverer) deadLetter(a Alert, reason string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deadTotal++
	d.deadLetters = append(d.deadLetters, DeadLetter{Alert: a, Reason: reason})
	if len(d.deadLetters) > d.pol.deadLetters {
		d.deadLetters = d.deadLetters[len(d.deadLetters)-d.pol.deadLetters:]
	}
}

// DeliveryStats is the alert-pipeline section of /metrics.
type DeliveryStats struct {
	Sink             string       `json:"sink"`
	QueueDepth       int          `json:"queue_depth"`
	Enqueued         uint64       `json:"enqueued"`
	Delivered        uint64       `json:"delivered"`
	Retries          uint64       `json:"retries"`
	DeadLettered     uint64       `json:"dead_lettered"`
	DroppedQueueFull uint64       `json:"dropped_queue_full"`
	BreakerState     string       `json:"breaker_state"`
	BreakerOpens     uint64       `json:"breaker_opens"`
	BreakerFastFails uint64       `json:"breaker_fast_fails"`
	DeadLetters      []DeadLetter `json:"dead_letters,omitempty"`
}

// Stats returns a point-in-time snapshot, including the retained dead
// letters.
func (d *Deliverer) Stats() DeliveryStats {
	now := time.Now()
	d.brk.mu.Lock()
	opens := d.brk.opens
	d.brk.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	return DeliveryStats{
		Sink:             d.sink.Name(),
		QueueDepth:       len(d.queue),
		Enqueued:         d.enqueued,
		Delivered:        d.delivered,
		Retries:          d.retries,
		DeadLettered:     d.deadTotal,
		DroppedQueueFull: d.dropped,
		BreakerState:     d.brk.state(now),
		BreakerOpens:     opens,
		BreakerFastFails: d.breakerFast,
		DeadLetters:      append([]DeadLetter(nil), d.deadLetters...),
	}
}

// latch is the one latch-and-fire path shared by the epoch Alerter and
// the SLO engine: a rule instance (keyed by its latch key) fires when
// its condition first becomes true and re-arms when the condition
// clears, so a sustained crossing produces one alert, not one per
// evaluation. Fired alerts fan out onto the bus and into the delivery
// pipeline, each optional. mu also guards the owner's own evaluation
// state.
type latch struct {
	bus       *Bus
	deliverer *Deliverer

	mu        sync.Mutex
	on        map[string]bool
	evaluated uint64
	fired     uint64
}

func newLatch(bus *Bus, deliverer *Deliverer) latch {
	return latch{bus: bus, deliverer: deliverer, on: make(map[string]bool)}
}

// edgeLocked records one evaluation of key and reports whether it is a
// rising edge — the only case that fires. Callers hold l.mu.
func (l *latch) edgeLocked(key string, active bool) bool {
	l.evaluated++
	was := l.on[key]
	l.on[key] = active
	if !active || was {
		return false
	}
	l.fired++
	return true
}

// fanOut publishes fired alerts on topic and enqueues them for
// delivery. Callers release l.mu first, so publishing never runs under
// the latch lock.
func (l *latch) fanOut(topic string, fired []Alert) {
	for _, a := range fired {
		if l.bus != nil {
			l.bus.Publish(topic, "alert", a)
		}
		if l.deliverer != nil {
			l.deliverer.Enqueue(a)
		}
	}
}

// counts returns the evaluated and fired totals.
func (l *latch) counts() (evaluated, fired uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evaluated, l.fired
}

// Alerter evaluates a registration's rules against each new epoch row
// and fans fired alerts out through the shared latch: onto the bus (as
// "alert" events on the fleet's topic) and into the delivery pipeline.
type Alerter struct {
	latch latch
}

// NewAlerter wires the evaluator to an optional bus and optional
// delivery pipeline.
func NewAlerter(bus *Bus, deliverer *Deliverer) *Alerter {
	return &Alerter{latch: newLatch(bus, deliverer)}
}

// Observe evaluates one fleet epoch row. prev is the previous row's
// MeanVTHShift (nil for the first epoch); det may be nil when the
// detector is disarmed. It returns the alerts fired for this row.
func (al *Alerter) Observe(fleet string, rules AlertRules, det *DeviationDetector,
	prevVTH []float64, cur lifetime.EpochStats) []Alert {
	if al == nil {
		return nil
	}
	type candidate struct {
		rule      string
		latchKey  string
		active    bool
		structure string
		value     float64
		threshold float64
		message   string
	}
	var cands []candidate
	if rules.P99Guardband > 0 {
		cands = append(cands, candidate{
			rule:      RuleP99Guardband,
			latchKey:  fleet + "/" + RuleP99Guardband,
			active:    cur.P99Guardband >= rules.P99Guardband,
			value:     cur.P99Guardband,
			threshold: rules.P99Guardband,
			message: fmt.Sprintf("P99 guardband %.4f crossed %.4f at epoch %d (%.2f years)",
				cur.P99Guardband, rules.P99Guardband, cur.Epoch, cur.Years),
		})
	}
	if rules.ViolatedFraction > 0 {
		cands = append(cands, candidate{
			rule:      RuleViolatedFraction,
			latchKey:  fleet + "/" + RuleViolatedFraction,
			active:    cur.ViolatedFraction >= rules.ViolatedFraction,
			value:     cur.ViolatedFraction,
			threshold: rules.ViolatedFraction,
			message: fmt.Sprintf("violated fraction %.4f crossed %.4f at epoch %d (%.2f years)",
				cur.ViolatedFraction, rules.ViolatedFraction, cur.Epoch, cur.Years),
		})
	}
	if rules.DutyTolerance > 0 && det != nil {
		dev, deviant := det.Check(prevVTH, cur.MeanVTHShift)
		cands = append(cands, candidate{
			rule:      RuleDutyDeviation,
			latchKey:  fleet + "/" + RuleDutyDeviation + "/" + dev.Structure,
			active:    deviant,
			structure: dev.Structure,
			value:     dev.Implied,
			threshold: det.Tolerance(),
			message: fmt.Sprintf("wearout-attack suspect: %s implied duty %.3f vs declared %.3f (|Δ|=%.3f > %.3f) at epoch %d",
				dev.Structure, dev.Implied, dev.Declared, dev.Delta, det.Tolerance(), cur.Epoch),
		})
	}
	var fired []Alert
	al.latch.mu.Lock()
	for _, c := range cands {
		if !al.latch.edgeLocked(c.latchKey, c.active) {
			continue
		}
		a := Alert{
			Fleet:     fleet,
			Rule:      c.rule,
			Epoch:     cur.Epoch,
			Structure: c.structure,
			Value:     c.value,
			Threshold: c.threshold,
			Message:   c.message,
			Time:      time.Now().UTC(),
		}
		a.ID = fmt.Sprintf("%s/%s/%d", a.Fleet, a.Rule, a.Epoch)
		if a.Structure != "" {
			a.ID += "/" + a.Structure
		}
		fired = append(fired, a)
	}
	al.latch.mu.Unlock()
	al.latch.fanOut(FleetTopic(fleet), fired)
	return fired
}

// AlertStats is the rule-evaluation section of /metrics.
type AlertStats struct {
	Evaluated uint64 `json:"evaluated"`
	Fired     uint64 `json:"fired"`
}

// Stats returns evaluation counters.
func (al *Alerter) Stats() AlertStats {
	evaluated, fired := al.latch.counts()
	return AlertStats{Evaluated: evaluated, Fired: fired}
}

package fleetops

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"penelope/internal/obs"
)

// Event is one bus message: a per-epoch fleet aggregate, a population
// state transition, a fired alert, or a completed sweep point. Seq is
// monotonic per topic and doubles as the SSE event id, so clients
// resume with Last-Event-ID (or ?after=) and receive exactly the
// events they missed that are still in the topic's history ring.
type Event struct {
	Seq   uint64          `json:"seq"`
	Topic string          `json:"topic"`
	Type  string          `json:"type"`
	Time  time.Time       `json:"time"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Bus is an in-process pub/sub fan-out with bounded, non-blocking
// delivery: a publish never waits on a subscriber — a full subscriber
// buffer drops the event and counts the drop instead of stalling the
// epoch loop. Each topic keeps a bounded ring of recent events for
// Last-Event-ID resume.
type Bus struct {
	mu     sync.Mutex
	topics map[string]*topic

	published atomic.Uint64
	dropped   atomic.Uint64
	ins       atomic.Pointer[Instruments]
}

type topic struct {
	seq  uint64
	ring obs.Ring[Event]
	subs map[*Subscription]struct{}
}

// DefaultHistory is the per-topic resume-ring capacity.
const DefaultHistory = 256

// NewBus builds a bus whose topics retain the last DefaultHistory events
// for resume.
func NewBus() *Bus {
	return &Bus{topics: make(map[string]*topic)}
}

func (b *Bus) topicLocked(name string) *topic {
	t := b.topics[name]
	if t == nil {
		t = &topic{ring: obs.NewRing[Event](DefaultHistory), subs: make(map[*Subscription]struct{})}
		b.topics[name] = t
	}
	return t
}

// Touch creates a topic if it does not exist, so streaming handlers can
// distinguish "no events yet" from "no such fleet".
func (b *Bus) Touch(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.topicLocked(name)
}

// HasTopic reports whether a topic exists (was touched or published to).
func (b *Bus) HasTopic(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.topics[name]
	return ok
}

// Drop removes a topic and closes its subscriptions (a deregistered
// fleet's stream ends rather than idling forever).
func (b *Bus) Drop(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topics[name]
	if t == nil {
		return
	}
	for sub := range t.subs {
		sub.closed = true
		close(sub.ch)
	}
	delete(b.topics, name)
}

// SetInstruments attaches an observability bundle after construction
// (NewBus stays instrument-free so uninstrumented buses skip even the
// timestamp read on publish).
func (b *Bus) SetInstruments(ins *Instruments) {
	b.ins.Store(ins)
}

// Publish marshals data, appends the event to the topic's history ring,
// and fans it out to subscribers without blocking. It returns the
// assigned event.
func (b *Bus) Publish(topicName, eventType string, data any) (Event, error) {
	if ins := b.ins.Load(); ins != nil && ins.BusPublishSeconds != nil {
		start := time.Now()
		defer func() { ins.BusPublishSeconds.ObserveDuration(time.Since(start)) }()
	}
	raw, err := json.Marshal(data)
	if err != nil {
		return Event{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topicLocked(topicName)
	t.seq++
	ev := Event{Seq: t.seq, Topic: topicName, Type: eventType, Time: time.Now().UTC(), Data: raw}
	t.ring.Push(ev)
	b.published.Add(1)
	for sub := range t.subs {
		select {
		case sub.ch <- ev:
		default:
			b.dropped.Add(1)
		}
	}
	return ev, nil
}

// Subscription is one bounded listener on a topic. Read events from C;
// a closed channel means the topic was dropped or the subscription
// closed. An event that finds the buffer full is dropped and counted in
// the bus stats — the stream is lossy by design, never a brake on the
// publisher.
type Subscription struct {
	bus    *Bus
	topic  string
	ch     chan Event
	closed bool
}

// C returns the receive channel.
func (s *Subscription) C() <-chan Event { return s.ch }

// SubscribeExisting registers a listener on an existing topic (one that
// was touched or published to). Events already in the history ring with
// Seq > after are replayed into the channel first (the channel is sized
// to hold them plus buf live events), so a resuming client sees no gap
// between replay and live delivery. It returns ok=false when the topic
// does not exist, instead of resurrecting a ghost topic, so an
// existence check followed by a subscribe cannot race a concurrent Drop.
func (b *Bus) SubscribeExisting(topicName string, after uint64, buf int) (*Subscription, bool) {
	if buf <= 0 {
		buf = 64
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topics[topicName]
	if t == nil {
		return nil, false
	}
	var replay []Event
	for i := 0; i < t.ring.Len(); i++ {
		if ev := t.ring.At(i); ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	sub := &Subscription{bus: b, topic: topicName, ch: make(chan Event, buf+len(replay))}
	for _, ev := range replay {
		sub.ch <- ev
	}
	t.subs[sub] = struct{}{}
	return sub, true
}

// Close detaches the subscription and closes its channel. Safe to call
// once per subscription; the bus also closes subscriptions when their
// topic is dropped.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if t := s.bus.topics[s.topic]; t != nil {
		delete(t.subs, s)
	}
	close(s.ch)
}

// BusStats is the bus section of /metrics.
type BusStats struct {
	Topics      int    `json:"topics"`
	Subscribers int    `json:"subscribers"`
	Published   uint64 `json:"published"`
	Dropped     uint64 `json:"dropped"`
}

// Stats returns a point-in-time snapshot.
func (b *Bus) Stats() BusStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BusStats{
		Topics:    len(b.topics),
		Published: b.published.Load(),
		Dropped:   b.dropped.Load(),
	}
	for _, t := range b.topics {
		st.Subscribers += len(t.subs)
	}
	return st
}

package fleetops

import (
	"encoding/json"
	"testing"
)

// subscribe touches a topic and subscribes to it, the way a fleet's
// stream attaches once the scheduler has touched its topic.
func subscribe(b *Bus, topic string, after uint64, buf int) *Subscription {
	b.Touch(topic)
	sub, _ := b.SubscribeExisting(topic, after, buf)
	return sub
}

func TestBusPublishSubscribeOrder(t *testing.T) {
	b := NewBus()
	sub := subscribe(b, "t", 0, 16)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		if _, err := b.Publish("t", "n", map[string]int{"i": i}); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		ev := <-sub.C()
		if ev.Seq != uint64(i+1) || ev.Topic != "t" || ev.Type != "n" {
			t.Fatalf("event %d = %+v", i, ev)
		}
		var d struct{ I int }
		if err := json.Unmarshal(ev.Data, &d); err != nil || d.I != i {
			t.Fatalf("payload %d = %s (%v)", i, ev.Data, err)
		}
	}
	if st := b.Stats(); st.Published != 5 || st.Dropped != 0 || st.Topics != 1 || st.Subscribers != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBusResume replays the history ring past a Last-Event-ID sequence
// number with no gap into live delivery.
func TestBusResume(t *testing.T) {
	b := NewBus()
	for i := 0; i < 6; i++ {
		b.Publish("t", "n", i)
	}
	sub := subscribe(b, "t", 4, 16) // saw events 1..4 already
	defer sub.Close()
	b.Publish("t", "n", 6) // live event while resumed

	want := []uint64{5, 6, 7}
	for _, seq := range want {
		ev := <-sub.C()
		if ev.Seq != seq {
			t.Fatalf("resume got seq %d, want %d", ev.Seq, seq)
		}
	}
}

// TestBusHistoryEviction: the ring keeps only the newest
// DefaultHistory events, so a subscriber resuming from 0 sees just the
// tail.
func TestBusHistoryEviction(t *testing.T) {
	b := NewBus()
	const published = DefaultHistory + 6
	for i := 0; i < published; i++ {
		b.Publish("t", "n", i)
	}
	sub := subscribe(b, "t", 0, 16)
	defer sub.Close()
	for seq := uint64(published - DefaultHistory + 1); seq <= published; seq++ {
		ev := <-sub.C()
		if ev.Seq != seq {
			t.Fatalf("got seq %d, want %d", ev.Seq, seq)
		}
	}
	select {
	case ev := <-sub.C():
		t.Fatalf("unexpected extra event %+v", ev)
	default:
	}
}

// TestBusSlowSubscriberDrops: a full subscriber buffer drops events and
// counts them instead of blocking the publisher.
func TestBusSlowSubscriberDrops(t *testing.T) {
	b := NewBus()
	sub := subscribe(b, "t", 0, 4)
	defer sub.Close()
	for i := 0; i < 20; i++ {
		b.Publish("t", "n", i) // never blocks
	}
	if st := b.Stats(); st.Dropped != 16 || st.Published != 20 {
		t.Fatalf("stats = %+v", st)
	}
	// The first 4 made it through in order.
	for i := 0; i < 4; i++ {
		ev := <-sub.C()
		if ev.Seq != uint64(i+1) {
			t.Fatalf("got seq %d, want %d", ev.Seq, i+1)
		}
	}
}

func TestBusDropClosesSubscribers(t *testing.T) {
	b := NewBus()
	b.Touch("t")
	if !b.HasTopic("t") {
		t.Fatal("Touch did not create the topic")
	}
	sub := subscribe(b, "t", 0, 4)
	b.Drop("t")
	if b.HasTopic("t") {
		t.Fatal("dropped topic still exists")
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("subscription channel still open after Drop")
	}
	sub.Close() // double close after Drop must not panic
	b.Drop("t") // dropping a missing topic is a no-op
}

// TestBusSubscribeExisting checks the no-create subscribe variant:
// it refuses a missing (or dropped) topic instead of resurrecting a
// ghost, and still replays history on a live one.
func TestBusSubscribeExisting(t *testing.T) {
	b := NewBus()
	if _, ok := b.SubscribeExisting("t", 0, 4); ok {
		t.Fatal("SubscribeExisting created a missing topic")
	}
	if b.HasTopic("t") {
		t.Fatal("failed SubscribeExisting left a topic behind")
	}
	b.Publish("t", "n", 1)
	sub, ok := b.SubscribeExisting("t", 0, 4)
	if !ok {
		t.Fatal("SubscribeExisting refused an existing topic")
	}
	if ev := <-sub.C(); ev.Seq != 1 {
		t.Fatalf("replayed seq = %d, want 1", ev.Seq)
	}
	sub.Close()
	b.Drop("t")
	if _, ok := b.SubscribeExisting("t", 0, 4); ok {
		t.Fatal("SubscribeExisting attached to a dropped topic")
	}
}

func TestBusPerTopicSequences(t *testing.T) {
	b := NewBus()
	b.Publish("a", "n", 1)
	b.Publish("a", "n", 2)
	ev, _ := b.Publish("b", "n", 1)
	if ev.Seq != 1 {
		t.Fatalf("topic b first seq = %d, want 1 (sequences are per topic)", ev.Seq)
	}
}

func TestBusPublishUnmarshalable(t *testing.T) {
	b := NewBus()
	if _, err := b.Publish("t", "n", func() {}); err == nil {
		t.Fatal("publishing an unmarshalable payload succeeded")
	}
}

// BenchmarkBusPublishFanout measures publish cost with a handful of
// (deliberately saturated) subscribers — the hot path of the epoch
// loop's event fan-out.
func BenchmarkBusPublishFanout(b *testing.B) {
	bus := NewBus()
	for i := 0; i < 4; i++ {
		defer subscribe(bus, "t", 0, 8).Close()
	}
	payload := EpochEvent{Fleet: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bus.Publish("t", "epoch", payload); err != nil {
			b.Fatal(err)
		}
	}
}

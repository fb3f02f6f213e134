package experiments

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"penelope/internal/trace"
)

// withRecordings swaps in an empty recordings memo of budget bytes for
// the rest of the test.
func withRecordings(t *testing.T, budget int64) {
	old := recordings
	recordings = newRecordings(budget)
	t.Cleanup(func() { recordings = old })
}

// TestRecordingsMemo pins the memo behind every bank: one recording per
// trace at its longest requested length, charged 51 bytes per uop. A
// longer request records again and replaces the entry, a shorter one is
// served by the resident recording, and the least recently used
// recordings are evicted past the budget.
func TestRecordingsMemo(t *testing.T) {
	const uop = 51
	withRecordings(t, 3*1000*uop)
	key := traceID{trace.Server, 5}
	short := record(trace.Server, 5, 600)
	if st := recordings.Stats(); st.Misses != 1 || st.Bytes != 600*uop {
		t.Fatalf("first recording: stats %+v, want 1 miss and %d bytes", st, 600*uop)
	}
	long := record(trace.Server, 5, 1000)
	if long.Len() != 1000 || !reflect.DeepEqual(long.Prefix(600), short) {
		t.Fatal("the longer recording does not extend the shorter one")
	}
	if r, ok := recordings.Get(key); !ok || r != long {
		t.Fatal("a longer request did not replace the resident recording")
	}
	if st := recordings.Stats(); st.Misses != 2 || st.Entries != 1 || st.Bytes != 1000*uop {
		t.Fatalf("after replacement: stats %+v, want 2 misses, 1 entry, %d bytes", st, 1000*uop)
	}
	if r := record(trace.Server, 5, 700); r != long {
		t.Error("a shorter request was not served by the resident recording")
	}
	b := (Options{TraceLength: 700, TraceStride: 531}).bank()
	if st := recordings.Stats(); st.Misses != 3 {
		t.Fatalf("a new trace made %d recordings in all, want 3", st.Misses)
	}
	for i := 0; i < 3; i++ {
		record(trace.Office, i, 1000)
	}
	st := recordings.Stats()
	if st.Bytes > 3*1000*uop || st.Evictions != 2 {
		t.Fatalf("past the budget: stats %+v, want at most %d bytes after 2 evictions", st, 3*1000*uop)
	}
	if _, ok := recordings.Get(key); ok {
		t.Error("the least recently used recording survived past the budget")
	}
	if !reflect.DeepEqual(b, trace.NewBank(700, 531)) {
		t.Error("a bank's view changed when its recording was evicted")
	}
}

// TestConcurrentBanksMatchNewBank builds banks at mixed lengths on one
// stride from many goroutines at once, so requests race to extend and
// share the same traces' recordings, and requires each bank to
// deep-equal trace.NewBank at its options. CI runs it under -race.
func TestConcurrentBanksMatchNewBank(t *testing.T) {
	withRecordings(t, recordingBudget)
	const stride = 133
	rng := rand.New(rand.NewSource(28))
	lengths := make([]int, 24)
	for i := range lengths {
		lengths[i] = 1 + rng.Intn(600)
	}
	banks := make([]*trace.Bank, len(lengths))
	var wg sync.WaitGroup
	for i, n := range lengths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			banks[i] = (Options{TraceLength: n, TraceStride: stride}).bank()
		}()
	}
	wg.Wait()
	for i, n := range lengths {
		if !reflect.DeepEqual(banks[i], trace.NewBank(n, stride)) {
			t.Errorf("bank at length %d differs from trace.NewBank", n)
		}
	}
	if st := recordings.Stats(); st.Entries != len(banks[0].Sources()) {
		t.Errorf("%d recordings resident for a %d-trace stride", st.Entries, len(banks[0].Sources()))
	}
}

// TestRecordingBytesSumsResident checks the recordings memo's reported
// charge against its contents: after inserts, a replacement by a longer
// recording and evictions past the budget, RecordingBytes equals the
// sum of Bytes over the recordings still resident.
func TestRecordingBytesSumsResident(t *testing.T) {
	const uop = 51
	withRecordings(t, 4*500*uop)
	var ids []traceID
	for i := 0; i < 6; i++ {
		ids = append(ids, traceID{trace.Office, i})
		record(trace.Office, i, 300+20*i)
	}
	record(trace.Office, 5, 500)
	if st := recordings.Stats(); st.Evictions == 0 {
		t.Fatalf("stats %+v: no eviction past the budget", st)
	}
	sum, resident := 0, 0
	for _, id := range ids {
		if r, ok := recordings.Get(id); ok {
			sum += r.Bytes()
			resident++
		}
	}
	if got := RecordingBytes(); got != int64(sum) || resident != recordings.Stats().Entries {
		t.Errorf("RecordingBytes %d over %d entries, want %d over %d resident", got, recordings.Stats().Entries, sum, resident)
	}
}

// TestSampleSourcesRecordOnlySample checks a lighter study's sample
// records only the traces it replays, not the whole bank.
func TestSampleSourcesRecordOnlySample(t *testing.T) {
	withRecordings(t, recordingBudget)
	o := replayOptions()
	src := o.sampleSources(4)
	want := trace.SampleTraces(o.TraceLength, o.TraceStride*4)
	if len(src) != len(want) || recordings.Stats().Entries != len(want) {
		t.Fatalf("%d sources, %d recordings, want %d of each", len(src), recordings.Stats().Entries, len(want))
	}
	for i, s := range src {
		if s.Name() != want[i].Name() {
			t.Errorf("source %d = %s, want %s", i, s.Name(), want[i].Name())
		}
	}
}

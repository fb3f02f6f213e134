package mix

import (
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// TestSplitMix64KnownValues pins the finalizer to the published
// SplitMix64 stream: seeded at 0, the generator's first outputs.
func TestSplitMix64KnownValues(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		if got := SplitMix64(state); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
		state += golden
	}
}

// TestKeyedMatchesFNVReference checks the inlined FNV-1a digest against
// hash/fnv, so Keyed stays the (seed, id, n) draw the delivery
// pipeline's recorded schedules were made with.
func TestKeyedMatchesFNVReference(t *testing.T) {
	ref := func(seed uint64, id string, n uint64) float64 {
		h := fnv.New64a()
		h.Write([]byte(id))
		return Float64(SplitMix64(seed ^ h.Sum64() ^ (n * golden)))
	}
	for _, id := range []string{"", "a", "fleet-a/p99-guardband/3", "slo/errors/1700000000", "job-42"} {
		for _, seed := range []uint64{0, 1, 99, math.MaxUint64} {
			for n := uint64(0); n < 8; n++ {
				got, want := Keyed(seed, id, n), ref(seed, id, n)
				if got != want {
					t.Fatalf("Keyed(%d, %q, %d) = %v, want %v", seed, id, n, got, want)
				}
				if got < 0 || got >= 1 {
					t.Fatalf("Keyed(%d, %q, %d) = %v outside [0,1)", seed, id, n, got)
				}
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	if got := Float64(0); got != 0 {
		t.Errorf("Float64(0) = %v", got)
	}
	if got := Float64(math.MaxUint64); got >= 1 {
		t.Errorf("Float64(max) = %v, want < 1", got)
	}
}

// TestBackoffTable checks the policy's contract for each caller's
// shape: first attempt in [base, 1.5·base), never past 1.5·cap, never
// negative for any attempt up to 64, and replayable.
func TestBackoffTable(t *testing.T) {
	cases := []struct {
		name string
		b    Backoff
	}{
		{"service default", Backoff{Base: 100 * time.Millisecond, Cap: 3 * time.Second}},
		{"service 1ns", Backoff{Base: time.Nanosecond, Cap: 30 * time.Nanosecond}},
		{"deliverer", Backoff{Base: 200 * time.Millisecond, Cap: 30 * time.Second, Seed: 7}},
		{"scheduler", Backoff{Base: time.Second, Cap: 5 * time.Minute, Seed: 3}},
		{"uncapped", Backoff{Base: time.Millisecond}},
		{"huge cap", Backoff{Base: time.Hour, Cap: time.Duration(math.MaxInt64)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, id := range []string{"job-1", "job-2", "fleet-a"} {
				first := tc.b.Delay(id, 0)
				if first < tc.b.Base || float64(first) >= 1.5*float64(tc.b.Base) {
					t.Errorf("%s: first delay %v outside [%v, 1.5·%v)", id, first, tc.b.Base, tc.b.Base)
				}
				for n := 0; n <= 64; n++ {
					d := tc.b.Delay(id, n)
					if d < 0 {
						t.Fatalf("%s attempt %d: negative delay %v", id, n, d)
					}
					if tc.b.Cap > 0 && float64(d) > 1.5*float64(tc.b.Cap) {
						t.Fatalf("%s attempt %d: delay %v exceeds 1.5·cap %v", id, n, d, tc.b.Cap)
					}
					if again := tc.b.Delay(id, n); again != d {
						t.Fatalf("%s attempt %d: delay %v then %v, want replayable", id, n, d, again)
					}
					// Jitter only adds: the delay is at least the capped
					// exponential.
					floor := math.Min(float64(tc.b.Base)*math.Pow(2, float64(n)), maxBase)
					if tc.b.Cap > 0 {
						floor = math.Min(floor, float64(tc.b.Cap))
					}
					if float64(d) < floor {
						t.Fatalf("%s attempt %d: delay %v below capped exponential %v", id, n, d, time.Duration(floor))
					}
				}
			}
		})
	}
}

// TestBackoffJitterKeyed checks the jitter is the keyed draw: the same
// (seed, id, attempt) agrees, a different seed or id decorrelates.
func TestBackoffJitterKeyed(t *testing.T) {
	b := Backoff{Base: time.Second, Cap: time.Minute, Seed: 1}
	same := 0
	for n := 0; n < 16; n++ {
		if b.Delay("a", n) == b.Delay("b", n) {
			same++
		}
	}
	if same > 1 {
		t.Errorf("ids a and b share %d of 16 delays; jitter is not keyed on id", same)
	}
	c := b
	c.Seed = 2
	if b.Delay("a", 3) == c.Delay("a", 3) {
		t.Error("seeds 1 and 2 gave the same delay; jitter is not keyed on seed")
	}
	want := time.Duration(float64(8*time.Second) * (1 + 0.5*Keyed(1, "a", 3)))
	if got := b.Delay("a", 3); got != want {
		t.Errorf("Delay(a, 3) = %v, want %v", got, want)
	}
}

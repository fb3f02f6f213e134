package obs

import (
	"testing"

	"penelope/internal/mix"
)

// TestRingMatchesReferenceSlice drives Ring and a plain append-and-trim
// slice with the same randomized push sequences — capacities 1 through
// 9 plus a large one, lengths crossing several wrap boundaries — and
// requires identical contents, lengths, fullness and evictions after
// every push.
func TestRingMatchesReferenceSlice(t *testing.T) {
	seed := uint64(1)
	for _, capacity := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		for trial := 0; trial < 20; trial++ {
			seed = mix.SplitMix64(seed)
			pushes := int(seed % uint64(4*capacity+3))
			r := NewRing[uint64](capacity)
			var ref []uint64
			for i := 0; i < pushes; i++ {
				seed = mix.SplitMix64(seed)
				v := seed
				old, evicted := r.Push(v)
				ref = append(ref, v)
				var wantOld uint64
				wantEvicted := len(ref) > capacity
				if wantEvicted {
					wantOld, ref = ref[0], ref[1:]
				}
				if evicted != wantEvicted || old != wantOld {
					t.Fatalf("cap %d push %d: evicted (%d, %v), want (%d, %v)",
						capacity, i, old, evicted, wantOld, wantEvicted)
				}
				if r.Len() != len(ref) || r.Full() != (len(ref) == capacity) {
					t.Fatalf("cap %d push %d: Len %d Full %v, want %d %v",
						capacity, i, r.Len(), r.Full(), len(ref), len(ref) == capacity)
				}
				for j, w := range ref {
					if got := r.At(j); got != w {
						t.Fatalf("cap %d push %d: At(%d) = %d, want %d", capacity, i, j, got, w)
					}
				}
			}
		}
	}
}

func TestRingZeroCapacityHoldsOne(t *testing.T) {
	r := NewRing[string](0)
	r.Push("a")
	if old, evicted := r.Push("b"); !evicted || old != "a" || r.Len() != 1 || r.At(0) != "b" {
		t.Fatalf("capacity-0 ring: evicted (%q, %v), len %d", old, evicted, r.Len())
	}
}

func TestRingPushAllocatesNothing(t *testing.T) {
	r := NewRing[int](8)
	if n := testing.AllocsPerRun(100, func() { r.Push(1) }); n != 0 {
		t.Fatalf("Push allocates %v per call", n)
	}
}

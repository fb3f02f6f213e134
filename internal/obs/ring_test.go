package obs

import (
	"math/bits"
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

// TestRingPushAllocatesNothing pins a full ring's Push at zero
// allocations. The count is taken over 1000 pushes in one run, so a
// single allocation anywhere shows instead of rounding away.
func TestRingPushAllocatesNothing(t *testing.T) {
	r := NewRing[int](8)
	for !r.Full() {
		r.Push(0)
	}
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			r.Push(i)
		}
	})
	if n != 0 {
		t.Fatalf("Push into a full ring allocated %v times over 1000 calls", n)
	}
}

// TestRingGrowthBounded fills fresh rings of several capacities and
// requires NewRing to allocate nothing, the buffer never to outgrow the
// capacity, the whole fill to take at most ⌈log2 capacity⌉+1
// allocations (counted exactly, over a single run) and the full ring to
// hold what was pushed. TestRingMatchesReferenceSlice checks contents
// push by push, growth included.
func TestRingGrowthBounded(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 5, 7, 8, 9, 64, 360, 720, 1000, 4096} {
		bound := bits.Len(uint(capacity-1)) + 1
		var r Ring[int]
		var startCap, maxCap int
		allocs := testing.AllocsPerRun(1, func() {
			r = NewRing[int](capacity)
			startCap, maxCap = cap(r.buf), 0
			for i := 0; i < capacity; i++ {
				r.Push(i)
				maxCap = max(maxCap, cap(r.buf))
			}
		})
		if startCap != 0 || maxCap != capacity || !r.Full() {
			t.Fatalf("capacity %d: NewRing cap %d, largest cap %d, Full %v", capacity, startCap, maxCap, r.Full())
		}
		if allocs > float64(bound) {
			t.Errorf("capacity %d: filling took %v allocations, want <= %d", capacity, allocs, bound)
		}
		for i := 0; i < capacity; i++ {
			if got := r.At(i); got != i {
				t.Fatalf("capacity %d: At(%d) = %d, want %d", capacity, i, got, i)
			}
		}
	}
}

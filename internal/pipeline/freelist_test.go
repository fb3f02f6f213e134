package pipeline

import "testing"

// TestFreeListFIFO pins the hardware free-list contract the accountants
// rely on: a fresh or reset list hands out every index in ascending
// order, an empty list refuses further claims, and freed indices come
// back in the order they were freed.
func TestFreeListFIFO(t *testing.T) {
	f := newFreeList(4)
	for round := 0; round < 2; round++ {
		for want := 0; want < 4; want++ {
			if f.empty() {
				t.Fatalf("round %d: list empty after %d claims", round, want)
			}
			if got := f.pop(); got != want {
				t.Fatalf("round %d: claim %d returned %d", round, want, got)
			}
		}
		if !f.empty() {
			t.Fatal("list not empty after claiming every index")
		}
		mustPanic(t, "claim from an empty list", func() { f.pop() })
		for _, i := range []int{2, 0, 3} {
			f.push(i)
		}
		for _, want := range []int{2, 0} {
			if got := f.pop(); got != want {
				t.Fatalf("round %d: freed index came back as %d, want %d", round, got, want)
			}
		}
		f.push(1)
		f.push(2)
		f.push(0)
		mustPanic(t, "free into a full list", func() { f.push(1) })
		for _, want := range []int{3, 1, 2, 0} {
			if got := f.pop(); got != want {
				t.Fatalf("round %d: wrapped claim returned %d, want %d", round, got, want)
			}
		}
		f.reset()
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

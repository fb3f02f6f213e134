package pipeline

// freeList is a hardware free list of structure indices: a FIFO ring, so
// entries rotate through allocation instead of a stack bottom stagnating
// with one value for the whole run (which would defeat the balancing).
// The core keeps one per register file and one for the scheduler slots;
// the accountants are told which index was claimed or freed.
type freeList struct {
	ring []int32
	head int // ring position of the oldest free index
	n    int // free indices
}

// newFreeList returns a list of size free indices, in ascending order.
func newFreeList(size int) freeList {
	f := freeList{ring: make([]int32, size)}
	f.reset()
	return f
}

// reset frees every index, in ascending order.
func (f *freeList) reset() {
	for i := range f.ring {
		f.ring[i] = int32(i)
	}
	f.head, f.n = 0, len(f.ring)
}

// empty reports whether every index is claimed.
func (f *freeList) empty() bool { return f.n == 0 }

// pop claims the oldest free index.
func (f *freeList) pop() int {
	if f.n == 0 {
		panic("pipeline: claim from an empty free list")
	}
	i := int(f.ring[f.head])
	f.head++
	if f.head == len(f.ring) {
		f.head = 0
	}
	f.n--
	return i
}

// push frees index i behind every index already free.
func (f *freeList) push(i int) {
	if f.n == len(f.ring) {
		panic("pipeline: free of an index no one claimed")
	}
	t := f.head + f.n
	if t >= len(f.ring) {
		t -= len(f.ring)
	}
	f.ring[t] = int32(i)
	f.n++
}

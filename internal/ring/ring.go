// Package ring provides a growable FIFO ring buffer for the simulator's
// hot-path queues (L2 input queue, SM outbox, LSU queue, icnt lanes, and
// the block list of each DRAM channel's backlog). Reset empties a buffer
// in place, so a re-armed machine's queues start at the capacity its
// earlier runs reached.
//
// The engine's previous queues were plain slices advanced with
// `q = q[1:]` — every pop leaked the backing array forward, so a queue
// that stayed non-empty re-allocated continuously, and `append` after a
// reslice could never reuse the vacated front. A ring buffer keeps one
// backing array for the queue's high-water mark and reuses it forever:
// steady-state Push/Pop is allocation-free.
//
// Determinism: the buffer is strictly FIFO — Pop order is exactly Push
// order regardless of past growth, so swapping it in for an append/reslice
// slice is behaviour-preserving by construction.
package ring

// Buffer is a growable FIFO queue. The zero value is an empty buffer ready
// for use.
type Buffer[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // number of live elements
}

// Len returns the number of queued elements.
func (b *Buffer[T]) Len() int { return b.n }

// Push appends v to the back of the queue.
func (b *Buffer[T]) Push(v T) {
	if b.n == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.n)&(len(b.buf)-1)] = v
	b.n++
}

// Pop removes and returns the front element. It panics on an empty buffer,
// exactly as q[0] on an empty slice would.
func (b *Buffer[T]) Pop() T {
	v := b.buf[b.head]
	// Zero the vacated slot so popped pointers do not pin their referents
	// (pooled requests are recycled, not leaked, but lsuOp holds warp
	// pointers the GC should be free to treat precisely).
	var zero T
	b.buf[b.head] = zero
	b.head = (b.head + 1) & (len(b.buf) - 1)
	b.n--
	if b.n == 0 {
		b.head = 0
	}
	return v
}

// Front returns the front element without removing it.
func (b *Buffer[T]) Front() T { return b.buf[b.head] }

// Reset empties the buffer and keeps its backing array. It zeroes the
// slots of the elements it drops, as Pop does, so a reset buffer pins
// nothing.
func (b *Buffer[T]) Reset() {
	var zero T
	for i := 0; i < b.n; i++ {
		b.buf[(b.head+i)&(len(b.buf)-1)] = zero
	}
	b.head, b.n = 0, 0
}

// At returns the i-th element from the front (0 = front) without removing
// it. Used by inspection walks (invariant checker, state dumps).
func (b *Buffer[T]) At(i int) T { return b.buf[(b.head+i)&(len(b.buf)-1)] }

// grow doubles the capacity (always a power of two, so indexing masks
// instead of dividing), linearising the live elements to the front.
func (b *Buffer[T]) grow() {
	capacity := len(b.buf) * 2
	if capacity == 0 {
		capacity = 16
	}
	next := make([]T, capacity)
	for i := 0; i < b.n; i++ {
		next[i] = b.buf[(b.head+i)&(len(b.buf)-1)]
	}
	b.buf, b.head = next, 0
}

package sim

// FIFO is a growable single-ended queue used throughout the network model
// for waiters on channels, buffers and controllers. The zero value is an
// empty queue ready for use.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.items) - f.head }

// Empty reports whether the queue holds no items.
func (f *FIFO[T]) Empty() bool { return f.Len() == 0 }

// Push appends an item to the tail of the queue.
func (f *FIFO[T]) Push(v T) { f.items = append(f.items, v) }

// Pop removes and returns the head item. It panics on an empty queue.
func (f *FIFO[T]) Pop() T {
	if f.Empty() {
		panic("sim: Pop on empty FIFO")
	}
	v := f.items[f.head]
	var zero T
	f.items[f.head] = zero
	f.head++
	if f.head == len(f.items) {
		// Drained: rewind, so a queue that empties between bursts never
		// grows past its largest burst.
		f.items = f.items[:0]
		f.head = 0
		return v
	}
	// Compact once the dead prefix dominates, keeping amortized O(1) pops
	// without unbounded growth.
	if f.head > 32 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		for i := n; i < len(f.items); i++ {
			var z T
			f.items[i] = z
		}
		f.items = f.items[:n]
		f.head = 0
	}
	return v
}

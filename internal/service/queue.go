package service

//simcheck:allow-file nogoroutine -- the run queue hands work to the worker pool under a mutex and condition variable

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// ErrQueueFull reports that the bounded run queue rejected a dispatch; the
// HTTP layer maps it to 503 so load sheds at admission instead of growing
// an unbounded backlog.
var ErrQueueFull = errors.New("service: run queue full")

// ErrDraining reports that the service stopped accepting work.
var ErrDraining = errors.New("service: draining, not accepting new work")

// request is one in-flight point resolution: a point, where it came from,
// and the channel its outcome is delivered on. The outcome channel is
// buffered so a delivering worker never blocks on a waiter that gave up.
type request struct {
	p        sweep.Point
	fp       string
	job      string
	priority int
	enqueued time.Time
	out      chan outcome
	run      *run // the run it waits on, set by join
}

// outcome is what a waiter receives: the measures, how they were produced,
// and the timing attribution for its metric row. coll is the engine's raw
// metrics collector, handed to exactly one waiter (the run leader) so one
// run's collector is never counted as two.
type outcome struct {
	m         sweep.Measures
	coll      *metrics.Collector
	source    Source
	batchSize int
	queueWait time.Duration
	runTime   time.Duration
	err       error
}

// run is one unique engine execution: the representative point plus every
// request waiting on its result. waiters, live and cancel are guarded by
// the owning Service's mutex (the queue only moves runs around).
type run struct {
	fp       string
	p        sweep.Point
	priority int
	seq      uint64
	waiters  []*request
	// live counts the waiters still waiting; cancel stops a started run.
	live   int
	cancel context.CancelFunc
}

// runQueue is a bounded priority queue: higher priority first, FIFO within
// a priority (seq breaks ties). The heap, its bound and the closed flag all
// change under mu, and workers block on ready, so a worker can never be
// woken for a run that is not yet in the heap.
type runQueue struct {
	mu     sync.Mutex
	ready  *sync.Cond // signalled on push and close; L is &mu
	heap   runHeap
	bound  int
	closed bool
}

func newRunQueue(depth int) *runQueue {
	if depth <= 0 {
		depth = 1024
	}
	q := &runQueue{bound: depth}
	q.ready = sync.NewCond(&q.mu)
	return q
}

// push enqueues a run; it fails with ErrQueueFull at the depth bound and
// with ErrDraining once the queue is closed.
func (q *runQueue) push(r *run) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if len(q.heap) >= q.bound {
		return ErrQueueFull
	}
	heap.Push(&q.heap, r)
	q.ready.Signal()
	return nil
}

// pop blocks for the highest-priority run, or returns nil once the queue
// is closed.
func (q *runQueue) pop() *run {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.ready.Wait()
	}
	if q.closed {
		return nil
	}
	return heap.Pop(&q.heap).(*run)
}

// close ends the queue: every blocked and future pop returns nil, every
// future push fails, and the runs still queued are handed back (in no
// particular order) so the caller can give their waiters a terminal answer.
func (q *runQueue) close() []*run {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	stranded := q.heap
	q.heap = nil
	q.ready.Broadcast()
	return stranded
}

// depth returns the number of queued runs.
func (q *runQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// runHeap implements heap.Interface: max priority first, then FIFO.
type runHeap []*run

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*run)) }
func (h *runHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}

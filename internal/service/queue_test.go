package service

//simcheck:allow-file nogoroutine -- the queue stress test is producers and consumers racing by design

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestQueueStress races 8 producers against 4 consumers over a queue far
// smaller than the traffic, so it is full and empty many times: a pop woken
// for a push must always find that run in the heap (a queue that publishes
// occupancy and heap entry separately panics here), and every run pushed
// is popped exactly once.
func TestQueueStress(t *testing.T) {
	const (
		producers   = 8
		consumers   = 4
		perProducer = 25_000
		total       = producers * perProducer
	)
	q := newRunQueue(64)
	popped := make([]atomic.Int32, total)
	var done atomic.Int64

	var cons sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cons.Add(1)
		go func() {
			defer cons.Done()
			for {
				rn := q.pop()
				if rn == nil {
					return
				}
				popped[rn.seq].Add(1)
				if done.Add(1) == total {
					q.close()
				}
			}
		}()
	}
	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			for i := 0; i < perProducer; i++ {
				rn := &run{seq: uint64(p*perProducer + i), priority: i % 3}
				for {
					err := q.push(rn)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("push: %v", err)
						q.close() // release the consumers; the count can no longer be reached
						return
					}
					runtime.Gosched()
				}
			}
		}(p)
	}
	prod.Wait()
	cons.Wait()

	for seq := range popped {
		if n := popped[seq].Load(); n != 1 {
			t.Fatalf("run %d popped %d times; want exactly once", seq, n)
		}
	}
	if d := q.depth(); d != 0 {
		t.Fatalf("depth %d after every run was popped; want 0", d)
	}
	if err := q.push(&run{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("push on a closed queue: err=%v; want ErrDraining", err)
	}
}

// TestQueueOrderUnderConcurrentPush: whatever order concurrent producers
// get their runs in, a single consumer takes them out highest priority
// first and in seq order within a priority.
func TestQueueOrderUnderConcurrentPush(t *testing.T) {
	const producers, perProducer = 8, 500
	q := newRunQueue(producers * perProducer)
	var seq atomic.Uint64
	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.push(&run{seq: seq.Add(1), priority: (p + i) % 5}); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(p)
	}
	prod.Wait()

	prev := q.pop()
	for i := 1; i < producers*perProducer; i++ {
		rn := q.pop()
		if rn.priority > prev.priority || (rn.priority == prev.priority && rn.seq < prev.seq) {
			t.Fatalf("pop %d is (priority %d, seq %d) after (priority %d, seq %d); want priority-then-FIFO",
				i, rn.priority, rn.seq, prev.priority, prev.seq)
		}
		prev = rn
	}
	if stranded := q.close(); len(stranded) != 0 {
		t.Fatalf("close handed back %d runs from a drained queue", len(stranded))
	}
}

package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// This file is the engine-equivalence harness: the calendar-queue engine
// is checked, pop for pop, against a reference event queue with the
// engine's documented semantics — a plain binary heap ordered by
// (time, sequence) with lazy cancellation, i.e. the pre-calendar-queue
// engine. Both queues are driven in lockstep through identical randomized
// schedule/cancel/reschedule scripts; any ordering divergence the bucketed
// queue introduces fails here before it can silently shift a simulation
// schedule. The scripts run twice: in the default FIFO mode, and under
// chaos ordering, where the reference draws each event's random sequence
// from its own copy of the engine's tie-break RNG in the same schedule
// order.

// refEvent is one reference-queue entry.
type refEvent struct {
	at        Time
	seq       uint64
	label     int
	cancelled *bool
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refQueue is the legacy-semantics reference: (time, seq) heap order,
// schedule-order sequence numbers (random ones under chaos), lazy cancel.
type refQueue struct {
	h   refHeap
	now Time
	seq uint64
	// chaos, when set, supplies every sequence number, as Engine.Chaos
	// does.
	chaos *RNG
	// flags maps label -> cancelled marker shared with the heap entry.
	flags map[int]*bool
}

func newRefQueue() *refQueue { return &refQueue{flags: make(map[int]*bool)} }

func (q *refQueue) schedule(d Time, label int) {
	c := new(bool)
	q.flags[label] = c
	seq := q.seq
	q.seq++
	if q.chaos != nil {
		seq = q.chaos.Uint64()
	}
	heap.Push(&q.h, refEvent{at: q.now + d, seq: seq, label: label, cancelled: c})
}

func (q *refQueue) cancel(label int) {
	if c, ok := q.flags[label]; ok {
		*c = true
	}
}

// pop returns the next live event's label, advancing the clock.
func (q *refQueue) pop() (int, bool) {
	for q.h.Len() > 0 {
		ev := heap.Pop(&q.h).(refEvent)
		delete(q.flags, ev.label)
		if *ev.cancelled {
			continue
		}
		q.now = ev.at
		return ev.label, true
	}
	return 0, false
}

// equivScript generates the workload: every decision is a pure hash of the
// event label and the seed, so the same script drives both queues.
type equivScript struct {
	base uint64
	// pending is the ordered registry of still-scheduled labels, the pool
	// cancel/reschedule targets are drawn from.
	pending []int
	next    int
}

func (s *equivScript) hash(label, k int) uint64 {
	return SplitMix64(s.base ^ uint64(label)*0x9e3779b97f4a7c15 ^ uint64(k)<<32)
}

// delayFor mixes the delay classes the simulator produces: zero-delay
// chains, short router/controller latencies, window-edge delays, and
// far-future watchdog-class events that must spill to the overflow heap
// (>= 1024 cycles out) — some far enough to cross several window widths.
func (s *equivScript) delayFor(label int) Time {
	switch s.hash(label, 1) % 10 {
	case 0:
		return 0
	case 1, 2, 3, 4:
		return Time(s.hash(label, 2) % 64)
	case 5, 6:
		return Time(s.hash(label, 3) % 1024)
	case 7:
		return Time(1024 + s.hash(label, 4)%64) // just past the window edge
	case 8:
		return Time(1024 + s.hash(label, 5)%4096)
	default:
		return Time(100_000 + s.hash(label, 6)%100_000)
	}
}

func (s *equivScript) remove(label int) {
	for i, l := range s.pending {
		if l == label {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// TestEngineEquivalenceRandomized drives the calendar-queue engine and the
// reference heap in lockstep through randomized scripts across 200 seeds
// (40 under -short, sized so the race-detector CI soak stays inside its
// time budget), demanding identical pop order and identical drain points.
func TestEngineEquivalenceRandomized(t *testing.T) {
	runEquivSeeds(t, false)
}

// TestEngineEquivalenceChaos is the same lockstep check with both queues
// under chaos ordering: same-time events fire in random-seq order, which
// the engine keeps by inserting into its bucket chains sorted by seq.
func TestEngineEquivalenceChaos(t *testing.T) {
	runEquivSeeds(t, true)
}

func runEquivSeeds(t *testing.T, chaos bool) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runEquivScript(t, DeriveSeed(0xE9, uint64(seed)), chaos)
		})
	}
}

func runEquivScript(t *testing.T, base uint64, chaos bool) {
	t.Helper()
	eng := NewEngine()
	ref := newRefQueue()
	if chaos {
		eng.Chaos(base)
		ref.chaos = NewRNG(base)
	}
	sc := &equivScript{base: base}
	handles := make(map[int]Handle)

	// Each engine event only records its label; all scheduling decisions
	// run between steps, applied to both queues identically.
	fired := -1
	record := func(arg any, _ int32) { fired = arg.(int) }

	scheduleBoth := func(label int, d Time) {
		handles[label] = eng.AfterCall(d, record, label, 0)
		ref.schedule(d, label)
		sc.pending = append(sc.pending, label)
	}
	cancelBoth := func(label int) {
		eng.Cancel(handles[label])
		ref.cancel(label)
		sc.remove(label)
		delete(handles, label)
	}
	newLabel := func() int { l := sc.next; sc.next++; return l }

	for i := 0; i < 300; i++ {
		l := newLabel()
		scheduleBoth(l, sc.delayFor(l))
	}

	for steps := 0; ; steps++ {
		if steps > 20_000 {
			t.Fatalf("script runaway after %d steps", steps)
		}
		fired = -1
		engOK := eng.Step()
		refLabel, refOK := ref.pop()
		if engOK != refOK {
			t.Fatalf("step %d: engine live=%v, reference live=%v", steps, engOK, refOK)
		}
		if !engOK {
			break
		}
		if fired != refLabel {
			t.Fatalf("step %d: engine fired label %d, reference expected %d (t=%d ref t=%d)",
				steps, fired, refLabel, eng.Now(), ref.now)
		}
		if eng.Now() != ref.now {
			t.Fatalf("step %d: clocks diverged: engine %d, reference %d", steps, eng.Now(), ref.now)
		}
		sc.remove(fired)
		delete(handles, fired)

		// Post-fire actions, decided by the fired label's hash: spawn 0-2
		// follow-up events, sometimes cancel a pending victim, sometimes
		// reschedule one (cancel + fresh schedule at a new delay).
		h := sc.hash(fired, 8)
		for j := 0; j < int(h%3); j++ {
			l := newLabel()
			scheduleBoth(l, sc.delayFor(l))
		}
		if h>>8%4 == 0 && len(sc.pending) > 0 {
			victim := sc.pending[int(h>>16)%len(sc.pending)]
			if h>>24%2 == 0 {
				cancelBoth(victim)
			} else {
				cancelBoth(victim)
				l := newLabel()
				scheduleBoth(l, sc.delayFor(l))
			}
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("engine reports %d pending after drain", eng.Pending())
	}
}

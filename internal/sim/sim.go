// Package sim provides a deterministic discrete-event simulation kernel.
//
// It replaces the CSIM process-oriented simulator used by the paper with an
// event-driven engine ordered by (time, sequence) so that simultaneous
// events fire in schedule order, which makes every run bit-for-bit
// reproducible. All simulated time is measured in integer cycles (the
// repository convention is one cycle = 5 ns, matching the unit of the
// paper's Tables 4 and 5).
//
// The queue is a bucketed calendar queue (timing wheel): one-cycle-wide
// buckets over a sliding window of numBuckets cycles, with a bitmap for
// O(1) next-bucket scans and a binary heap holding the far-future overflow.
// Events live in a free-listed slab, and each bucket is a chain linked
// through the slab itself; Handle values (slot + generation) address them,
// so cancelling an already-fired or recycled event is a safe no-op. See
// DESIGN.md, "Calendar-queue event engine".
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, in cycles.
type Time uint64

// MaxTime is the largest representable simulation time.
const MaxTime = Time(math.MaxUint64)

const (
	// numBuckets is the calendar window width in cycles. Simulated delays
	// in this model are almost all far below 1024 cycles (router, link and
	// controller latencies), so in steady state the overflow heap holds
	// only watchdog- and deadline-class events.
	numBuckets = 1024
	bucketMask = numBuckets - 1
	numWords   = numBuckets / 64
	wordMask   = numWords - 1
)

// event is one slab slot. A slot is pending from schedule to fire/cancel
// consumption, then recycled through the free list; gen increments at each
// recycling so stale Handles never alias a new occupant.
type event struct {
	at  Time
	seq uint64
	// fn carries its arguments in arg/argI, letting hot callers schedule
	// without allocating a closure.
	fn   func(arg any, i int32)
	arg  any
	argI int32
	// next links the slot into its bucket's chain while pending, and into
	// the free list once recycled; a slot is never on both (-1 ends either).
	next      int32
	gen       uint32
	cancelled bool
}

// Handle identifies a scheduled event. The zero Handle is invalid and safe
// to Cancel. Handles stay valid (as no-op targets) after the event fires:
// the generation check makes Cancel of a completed or recycled event a
// no-op, pinning the stale-index bug class fixed in PR 1.
type Handle struct {
	slot int32
	gen  uint32
}

// Valid reports whether the handle refers to an event that was ever
// scheduled (it does not imply the event is still pending).
func (h Handle) Valid() bool { return h.gen != 0 }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	fired  uint64
	live   int // pending, non-cancelled events
	halted bool
	// chaos, when set, randomizes the firing order of same-time events
	// (deterministically per seed) instead of the default schedule order —
	// a schedule-perturbation tester in the spirit of protocol
	// verification: models must not depend on tie-breaking.
	chaos *RNG
	// probe, when set, observes every fired event (after the clock
	// advances, before the callback runs). Observational only: a probe
	// must not schedule events, so probed runs replay identically.
	probe func(at Time, fired uint64, pending int)

	// events is the slab; free heads its free list (-1 = empty). The slab
	// is addressed by index only, so append growth never invalidates state.
	events []event
	free   int32

	// base is the low edge of the bucket window [base, base+numBuckets);
	// it trails now and snaps to now on every fire. All bucketed events
	// have at in [now, base+numBuckets); overflow events lie at or beyond
	// base+numBuckets (at insertion time). Bucket b's events form the slab
	// chain head[b] -> next -> ... -> tail[b] (head -1 = empty), in firing
	// order; tail is meaningful only while head is not -1.
	base     Time
	head     [numBuckets]int32
	tail     [numBuckets]int32
	words    [numWords]uint64 // bit b set iff bucket b is open
	bucketed int              // entries across all buckets (incl. cancelled)

	// cur is the bucket currently draining (-1 = none). Its chain holds
	// only undrained events, so a zero-delay insertion simply joins it.
	cur int32

	// overflow is a binary heap of slot indices ordered by (at, seq), and
	// overflowAt its top's fire time (MaxTime when empty), cached so the
	// per-event migration check reads no slab entry.
	overflow   []int32
	overflowAt Time
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	e := &Engine{free: -1, cur: -1, overflowAt: MaxTime}
	for i := range e.head {
		e.head[i] = -1
	}
	return e
}

// Chaos switches same-time event ordering from FIFO to a seeded random
// shuffle. Call before scheduling; per-seed runs remain deterministic.
func (e *Engine) Chaos(seed uint64) { e.chaos = NewRNG(seed) }

// Chaotic reports whether chaos ordering is on: every scheduled event then
// draws from the tie-break RNG, so skipping events changes the order of all
// later ones.
func (e *Engine) Chaotic() bool { return e.chaos != nil }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live events waiting in the queue. Cancelled
// events never count: cancellation is lazy (the slot drains later), but the
// live counter is exact.
func (e *Engine) Pending() int { return e.live }

// AtCall schedules fn(arg, i) at absolute time t. Callers keep one
// long-lived fn and pass per-event state through arg and i, so the hot path
// allocates nothing. Scheduling in the past (t less than Now) panics: it
// always indicates a model bug, never a recoverable runtime condition.
//
//simcheck:noalloc
func (e *Engine) AtCall(t Time, fn func(arg any, i int32), arg any, i int32) Handle {
	return e.schedule(t, fn, arg, i)
}

// AfterCall schedules fn(arg, i) to run d cycles from now.
//
//simcheck:noalloc
func (e *Engine) AfterCall(d Time, fn func(arg any, i int32), arg any, i int32) Handle {
	return e.schedule(e.now+d, fn, arg, i)
}

// CallFunc is the AtCall/AfterCall handler for a caller whose per-event
// state is itself a continuation: pass the func() as arg. A func value is
// pointer-shaped, so boxing it allocates nothing.
func CallFunc(fn any, _ int32) { fn.(func())() }

//
//simcheck:noalloc
func (e *Engine) schedule(t Time, fn func(any, int32), arg any, argI int32) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	var idx int32
	if e.free >= 0 {
		idx = e.free
		e.free = e.events[idx].next
	} else {
		e.events = append(e.events, event{gen: 1})
		idx = int32(len(e.events) - 1)
	}
	seq := e.seq
	e.seq++
	if e.chaos != nil {
		seq = e.chaos.Uint64()
	}
	ev := &e.events[idx]
	ev.at, ev.seq = t, seq
	ev.fn, ev.arg, ev.argI = fn, arg, argI
	ev.cancelled = false
	e.live++
	if t < e.base+numBuckets {
		e.insertBucket(idx, t)
	} else {
		e.pushOverflow(idx)
	}
	return Handle{slot: idx, gen: ev.gen}
}

// insertBucket chains idx into the bucket of time t. All times currently
// bucketed lie in the half-open width-numBuckets window above now, so t's
// bucket either is empty or already holds exactly time t. Schedule order is
// seq order, and overflow migration feeds buckets in (time, seq) heap order,
// so appending keeps every chain sorted by seq; only chaos's random seqs
// need the sorted insertion.
//
//simcheck:noalloc
func (e *Engine) insertBucket(idx int32, t Time) {
	bi := int32(t) & bucketMask
	ev := &e.events[idx]
	e.bucketed++
	if e.head[bi] < 0 {
		ev.next = -1
		e.head[bi], e.tail[bi] = idx, idx
		e.words[bi>>6] |= 1 << uint(bi&63)
		return
	}
	last := e.tail[bi]
	if e.chaos != nil && e.events[last].seq > ev.seq {
		e.insertSorted(bi, idx)
		return
	}
	ev.next = -1
	e.events[last].next = idx
	e.tail[bi] = idx
}

// insertSorted links idx into bucket bi's chain after every event whose seq
// is not above its own (so equal seqs stay FIFO). The caller has seen the
// tail's seq above it, so the walk stops before running off the chain.
//
//simcheck:noalloc
func (e *Engine) insertSorted(bi, idx int32) {
	ev := &e.events[idx]
	p := e.head[bi]
	if e.events[p].seq > ev.seq {
		ev.next = p
		e.head[bi] = idx
		return
	}
	for q := e.events[p].next; e.events[q].seq <= ev.seq; q = e.events[q].next {
		p = q
	}
	ev.next = e.events[p].next
	e.events[p].next = idx
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired, been cancelled, or whose slot was recycled is a no-op (the
// generation check catches all three). Cancellation is lazy — the slot stays
// chained and is reclaimed when its bucket or the overflow heap drains past
// it — but Pending reflects it immediately.
//
//simcheck:noalloc
func (e *Engine) Cancel(h Handle) {
	if h.gen == 0 || h.slot < 0 || int(h.slot) >= len(e.events) {
		return
	}
	ev := &e.events[h.slot]
	if ev.gen != h.gen || ev.cancelled {
		return
	}
	ev.cancelled = true
	ev.fn, ev.arg = nil, nil
	e.live--
}

// Cancelled reports whether h refers to an event that was cancelled and not
// yet recycled. Once the slot drains, Cancelled returns false again — use
// it right after Cancel, not as long-term state.
//
//simcheck:noalloc
func (e *Engine) Cancelled(h Handle) bool {
	if h.gen == 0 || h.slot < 0 || int(h.slot) >= len(e.events) {
		return false
	}
	ev := &e.events[h.slot]
	return ev.gen == h.gen && ev.cancelled
}

// Halt stops Run/RunUntil after the event currently executing returns.
func (e *Engine) Halt() { e.halted = true }

// SetProbe installs fn as the engine's event observer: it is called once
// per fired event with the fire time, the running fired count, and the
// queue depth, before the event's callback executes. A nil fn (the
// default) disables probing at the cost of one pointer comparison per
// event. Probes are for tracing and profiling only — they must never
// schedule or cancel events.
func (e *Engine) SetProbe(fn func(at Time, fired uint64, pending int)) { e.probe = fn }

// freeSlot recycles a consumed or cancelled slot, which its caller has
// already unlinked from its chain or the heap. The generation bump
// invalidates every outstanding Handle to it.
//
//simcheck:noalloc
func (e *Engine) freeSlot(idx int32) {
	ev := &e.events[idx]
	ev.gen++
	if ev.gen == 0 {
		ev.gen = 1
	}
	ev.fn, ev.arg = nil, nil
	ev.cancelled = false
	ev.next = e.free
	e.free = idx
}

// scanBuckets returns the open bucket with the earliest time. Bucketed
// times all lie in [base, base+numBuckets) — base trails now in steady
// state and leads it transiently right after a rebase — so the first set
// bit in circular scan order from base's bucket is the earliest.
//
//simcheck:noalloc
func (e *Engine) scanBuckets() (int32, bool) {
	s := int32(e.base) & bucketMask
	wi := s >> 6
	word := e.words[wi] &^ (1<<uint(s&63) - 1)
	for k := 0; k <= numWords; k++ {
		if word != 0 {
			return wi<<6 | int32(bits.TrailingZeros64(word)), true
		}
		wi = (wi + 1) & wordMask
		word = e.words[wi]
	}
	return 0, false
}

// nextTime locates the earliest live event without consuming it, draining
// cancelled slots it passes over. On return with ok, either cur's chain
// head is a live event, or the buckets are empty and the overflow heap's
// top is live (not yet migrated). It never advances base, so peeking past a
// RunUntil limit perturbs nothing.
//
//simcheck:noalloc
func (e *Engine) nextTime() (Time, bool) {
	for {
		if bi := e.cur; bi >= 0 {
			for idx := e.head[bi]; idx >= 0; idx = e.head[bi] {
				ev := &e.events[idx]
				if !ev.cancelled {
					return ev.at, true
				}
				e.head[bi] = ev.next
				e.bucketed--
				e.freeSlot(idx)
			}
			e.words[bi>>6] &^= 1 << uint(bi&63)
			e.cur = -1
		}
		if e.bucketed > 0 {
			bi, ok := e.scanBuckets()
			if !ok {
				panic("sim: bucket accounting out of sync")
			}
			e.cur = bi
			continue
		}
		for len(e.overflow) > 0 {
			top := e.overflow[0]
			if !e.events[top].cancelled {
				return e.events[top].at, true
			}
			e.popOverflow()
			e.freeSlot(top)
		}
		return 0, false
	}
}

// rebase jumps the window to t (the overflow top's fire time) and migrates
// every overflow event inside the new window into buckets.
//
//simcheck:noalloc
func (e *Engine) rebase(t Time) {
	e.base = t
	e.migrate()
}

// migrate moves overflow events that the advancing window has reached into
// buckets, upholding the selection invariant that the overflow top is never
// earlier than any bucketed event. Heap pops come out in (time, seq) order,
// so migrated buckets stay FIFO-sorted; migrated times are strictly after
// the current fire time, so migration never touches the draining bucket.
//
//simcheck:noalloc
func (e *Engine) migrate() {
	limit := e.base + numBuckets
	for e.overflowAt < limit {
		top := e.overflow[0]
		ev := &e.events[top]
		e.popOverflow()
		if ev.cancelled {
			e.freeSlot(top)
			continue
		}
		e.insertBucket(top, ev.at)
	}
}

// Step executes the single earliest pending event. It returns false when the
// queue is empty.
//
//simcheck:noalloc
func (e *Engine) Step() bool {
	for {
		_, ok := e.nextTime()
		if !ok {
			return false
		}
		if e.cur < 0 {
			// The earliest event still sits in the overflow heap: slide the
			// window to it and retry from the buckets.
			e.rebase(e.overflowAt)
			continue
		}
		idx := e.head[e.cur]
		ev := &e.events[idx]
		t := ev.at
		fn, arg, argI := ev.fn, ev.arg, ev.argI
		e.head[e.cur] = ev.next // before freeSlot reuses next
		e.bucketed--
		e.freeSlot(idx)
		if t < e.now {
			panic("sim: event queue time went backwards")
		}
		e.now = t
		e.base = t
		if e.overflowAt < e.base+numBuckets {
			e.migrate()
		}
		e.live--
		e.fired++
		if e.probe != nil {
			e.probe(e.now, e.fired, e.live)
		}
		fn(arg, argI)
		return true
	}
}

// Run executes events until the queue drains or Halt is called. It returns
// the number of events executed.
//
//simcheck:noalloc
func (e *Engine) Run() uint64 {
	start := e.fired
	e.halted = false
	for !e.halted && e.Step() {
	}
	return e.fired - start
}

// RunUntil executes events with fire time <= limit. Events scheduled beyond
// the limit remain queued; the clock is advanced to limit if the simulation
// ran dry earlier. It returns the number of events executed.
//
//simcheck:noalloc
func (e *Engine) RunUntil(limit Time) uint64 {
	start := e.fired
	e.halted = false
	for !e.halted {
		t, ok := e.nextTime()
		if !ok {
			break
		}
		if t > limit {
			// nextTime may have selected a bucket past the limit. Unselect
			// it, so an event scheduled before it in the meantime still
			// fires first; its chain stays open.
			e.cur = -1
			break
		}
		e.Step()
	}
	if !e.halted && e.now < limit {
		e.now = limit
	}
	return e.fired - start
}

// pushOverflow adds a slot to the overflow heap.
//
//simcheck:noalloc
func (e *Engine) pushOverflow(idx int32) {
	e.overflow = append(e.overflow, idx)
	i := len(e.overflow) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.overflowLess(e.overflow[i], e.overflow[p]) {
			break
		}
		e.overflow[i], e.overflow[p] = e.overflow[p], e.overflow[i]
		i = p
	}
	e.overflowAt = e.events[e.overflow[0]].at
}

// popOverflow removes the heap top.
//
//simcheck:noalloc
func (e *Engine) popOverflow() {
	n := len(e.overflow) - 1
	e.overflow[0] = e.overflow[n]
	e.overflow = e.overflow[:n]
	if n == 0 {
		e.overflowAt = MaxTime
		return
	}
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && e.overflowLess(e.overflow[r], e.overflow[l]) {
			c = r
		}
		if !e.overflowLess(e.overflow[c], e.overflow[i]) {
			break
		}
		e.overflow[i], e.overflow[c] = e.overflow[c], e.overflow[i]
		i = c
	}
	e.overflowAt = e.events[e.overflow[0]].at
}

//
//simcheck:noalloc
func (e *Engine) overflowLess(a, b int32) bool {
	ea, eb := &e.events[a], &e.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

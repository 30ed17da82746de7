package sim

import (
	"testing"
)

// Edge-case coverage for the calendar queue itself: window wraparound,
// overflow spill and migration, zero-delay insertion into the draining
// bucket, and handle-safety around recycled slots.

// TestQueueZeroDelaySelfReschedule chains zero-delay events from inside a
// firing callback: each lands in the bucket currently draining and must
// fire in the same Step-visible order the legacy engine gave (schedule
// order, same cycle), without the clock moving.
func TestQueueZeroDelaySelfReschedule(t *testing.T) {
	e := NewEngine()
	var order []int
	depth := 0
	var chain func()
	chain = func() {
		order = append(order, depth)
		depth++
		if depth < 5 {
			afterFunc(e, 0, chain)
		}
	}
	atFunc(e, 7, chain)
	atFunc(e, 7, func() { order = append(order, 100) })
	e.Run()
	if e.Now() != 7 {
		t.Fatalf("clock moved to %d; zero-delay chain must stay at 7", e.Now())
	}
	want := []int{0, 100, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestQueueCancelThenReschedule cancels a pending event and schedules a
// replacement at a different time: only the replacement fires.
func TestQueueCancelThenReschedule(t *testing.T) {
	e := NewEngine()
	var fired []string
	h := atFunc(e, 10, func() { fired = append(fired, "old") })
	e.Cancel(h)
	atFunc(e, 5, func() { fired = append(fired, "new") })
	// Cancelling the same handle again (and the zero handle) stays a no-op.
	e.Cancel(h)
	e.Cancel(Handle{})
	e.Run()
	if len(fired) != 1 || fired[0] != "new" {
		t.Fatalf("fired %v, want [new]", fired)
	}
}

// TestQueueFarFutureOverflowSpill schedules events beyond the bucket window
// (>= now+1024): they must spill to the overflow heap, then migrate into
// buckets as the window advances, and still fire in global time order.
func TestQueueFarFutureOverflowSpill(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	// Far-future first (forces overflow while the window sits at 0), then
	// near events, then a middle band that lands inside the window only
	// after the first rebase.
	for _, at := range []Time{500_000, 100_000, 2048, 1024, 3, 1023} {
		atFunc(e, at, rec)
	}
	e.Run()
	want := []Time{3, 1023, 1024, 2048, 100_000, 500_000}
	for i, at := range want {
		if fired[i] != at {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestQueueWindowWraparound walks a self-rescheduling event far past the
// bucket capacity so every bucket index is reused many times, interleaved
// with same-cycle siblings to check order within each revisited bucket.
func TestQueueWindowWraparound(t *testing.T) {
	e := NewEngine()
	var fired []Time
	const step, hops = 700, 40 // 40*700 = 28000 cycles ≈ 27 window widths
	hop := 0
	var walk func()
	walk = func() {
		fired = append(fired, e.Now())
		hop++
		if hop < hops {
			afterFunc(e, step, walk)
			afterFunc(e, step, func() { fired = append(fired, e.Now()) })
		}
	}
	atFunc(e, 0, walk)
	e.Run()
	at := Time(0)
	i := 0
	for h := 0; h < hops; h++ {
		n := 1
		if h > 0 {
			n = 2 // walker plus its same-cycle sibling
		}
		for k := 0; k < n; k++ {
			if fired[i] != at {
				t.Fatalf("event %d fired at %d, want %d", i, fired[i], at)
			}
			i++
		}
		at += step
	}
	if i != len(fired) {
		t.Fatalf("fired %d events, want %d", len(fired), i)
	}
}

// TestQueueCancelRecycledHandle pins the generation check: a handle whose
// slot has been consumed and recycled by a new event must not cancel the
// new occupant.
func TestQueueCancelRecycledHandle(t *testing.T) {
	e := NewEngine()
	fired := 0
	old := atFunc(e, 1, func() { fired++ })
	e.Run()
	// The slot is now free; the next schedule reuses it.
	fresh := atFunc(e, 2, func() { fired += 10 })
	if old.slot != fresh.slot {
		t.Fatalf("expected slot reuse (old %d, fresh %d)", old.slot, fresh.slot)
	}
	e.Cancel(old) // stale generation: must be a no-op
	e.Run()
	if fired != 11 {
		t.Fatalf("fired = %d, want 11 (stale cancel must not kill the new event)", fired)
	}
	if e.Cancelled(old) || e.Cancelled(fresh) {
		t.Fatalf("no live cancellations expected")
	}
}

// TestQueueCancelOverflowEvent cancels an event sitting in the overflow
// heap; the heap must drain it lazily without firing it.
func TestQueueCancelOverflowEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	h := atFunc(e, 50_000, func() { fired = append(fired, e.Now()) })
	atFunc(e, 60_000, func() { fired = append(fired, e.Now()) })
	atFunc(e, 1, func() { fired = append(fired, e.Now()) })
	e.Cancel(h)
	e.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 60_000 {
		t.Fatalf("fired %v, want [1 60000]", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
}

// TestEngineAllocsPerEvent pins the engine's steady-state allocation rate:
// once the slab and buckets are warm, an AfterCall schedule + fire cycle
// allocates nothing.
func TestEngineAllocsPerEvent(t *testing.T) {
	e := NewEngine()
	fn := func(any, int32) {}
	// Warm the slab, bucket slices and free list.
	for i := 0; i < 4096; i++ {
		e.AfterCall(Time(i%512), fn, nil, 0)
	}
	e.Run()
	avg := testing.AllocsPerRun(2000, func() {
		e.AfterCall(3, fn, nil, 0)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("allocs per scheduled+fired event = %v, want 0", avg)
	}
}

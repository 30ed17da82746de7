package sim

import (
	"encoding/json"
	"slices"
	"testing"
	"testing/quick"
)

// atFunc and afterFunc schedule a plain closure, for the tests that want
// one; the engine itself only knows (fn, arg, i) events.
func atFunc(e *Engine, t Time, fn func()) Handle { return e.AtCall(t, CallFunc, fn, 0) }

func afterFunc(e *Engine, d Time, fn func()) Handle { return e.AfterCall(d, CallFunc, fn, 0) }

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		atFunc(e, at, func() { order = append(order, at) })
	}
	if got := e.Run(); got != 3 {
		t.Fatalf("Run executed %d events, want 3", got)
	}
	want := []Time{10, 20, 30}
	for i, at := range want {
		if order[i] != at {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		atFunc(e, 5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of schedule order: %v", order)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	atFunc(e, 100, func() {
		afterFunc(e, 50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("After fired at %d, want 150", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	atFunc(e, 100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		atFunc(e, 50, func() {})
	})
	e.Run()
}

func TestEngineCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := atFunc(e, 10, func() { fired = true })
	e.Cancel(ev)
	if !e.Cancelled(ev) {
		t.Fatal("Cancelled() = false after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelFiredEventIsNoop(t *testing.T) {
	e := NewEngine()
	ev := atFunc(e, 10, func() {})
	e.Run()
	e.Cancel(ev) // must not panic or mark cancelled
	if e.Cancelled(ev) {
		t.Fatal("Cancel after firing marked event cancelled")
	}
}

func TestEngineHaltStopsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		atFunc(e, i, func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("Run executed %d events after Halt, want 3", count)
	}
	if e.Pending() == 0 {
		t.Fatal("queue drained despite Halt")
	}
}

func TestEngineRunUntilRespectsLimit(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		atFunc(e, at, func() { fired = append(fired, at) })
	}
	n := e.RunUntil(12)
	if n != 2 {
		t.Fatalf("RunUntil executed %d events, want 2", n)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d after RunUntil(12), want 12", e.Now())
	}
	n = e.RunUntil(100)
	if n != 2 {
		t.Fatalf("second RunUntil executed %d, want 2", n)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
}

// TestEngineRunUntilLeavesNoBucketSelected: RunUntil stops in front of an
// event past its limit; an event scheduled afterwards, earlier than that one,
// must still fire first.
func TestEngineRunUntilLeavesNoBucketSelected(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	cancelled := atFunc(e, 100, record)
	atFunc(e, 100, record)
	e.Cancel(cancelled)
	e.RunUntil(10)
	atFunc(e, 50, record)
	e.Run()
	if len(fired) != 2 || fired[0] != 50 || fired[1] != 100 {
		t.Fatalf("fire order %v; want [50 100]", fired)
	}
}

func TestEngineRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("Now = %d, want 42", e.Now())
	}
}

func TestEngineStepEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEngineFiredCounts(t *testing.T) {
	e := NewEngine()
	for i := Time(1); i <= 5; i++ {
		atFunc(e, i, func() {})
	}
	ev := atFunc(e, 6, func() {})
	e.Cancel(ev)
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5 (cancelled events must not count)", e.Fired())
	}
}

func TestEventChainDeterminism(t *testing.T) {
	// Two identical runs must produce identical traces.
	run := func() []Time {
		e := NewEngine()
		rng := NewRNG(7)
		var trace []Time
		var spawn func()
		spawn = func() {
			trace = append(trace, e.Now())
			if len(trace) < 100 {
				afterFunc(e, Time(1+rng.Intn(10)), spawn)
			}
		}
		atFunc(e, 0, spawn)
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFIFOOrdering(t *testing.T) {
	var f FIFO[int]
	if !f.Empty() {
		t.Fatal("zero FIFO not empty")
	}
	for i := 0; i < 100; i++ {
		f.Push(i)
	}
	if f.Len() != 100 {
		t.Fatalf("Len = %d, want 100", f.Len())
	}
	for i := 0; i < 100; i++ {
		if got := f.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if !f.Empty() {
		t.Fatal("FIFO not empty after draining")
	}
}

func TestFIFOInterleavedCompaction(t *testing.T) {
	var f FIFO[int]
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			f.Push(next)
			next++
		}
		for i := 0; i < 31; i++ {
			if got := f.Pop(); got != expect {
				t.Fatalf("Pop = %d, want %d", got, expect)
			}
			expect++
		}
	}
	for !f.Empty() {
		if got := f.Pop(); got != expect {
			t.Fatalf("drain Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d items, pushed %d", expect, next)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty FIFO did not panic")
		}
	}()
	var f FIFO[int]
	f.Pop()
}

func TestFIFOPropertyFIFOOrder(t *testing.T) {
	// Property: any interleaving of pushes and pops preserves FIFO order.
	prop := func(ops []bool) bool {
		var f FIFO[int]
		next, expect := 0, 0
		for _, push := range ops {
			if push || f.Empty() {
				f.Push(next)
				next++
			} else {
				if f.Pop() != expect {
					return false
				}
				expect++
			}
		}
		for !f.Empty() {
			if f.Pop() != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministicAndSeedSensitive(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(2)
	same := true
	a = NewRNG(1)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical first 10 values")
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestRNGIntnNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSampleDistinct(t *testing.T) {
	r := NewRNG(5)
	s := r.Sample(100, 10)
	if len(s) != 10 {
		t.Fatalf("Sample returned %d values, want 10", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Sample not distinct in range: %v", s)
		}
		seen[v] = true
	}
}

// TestRNGSampleIntoMatchesSample reuses one buffer, too short at first and
// dirty after, across draws of varying size: every draw must equal Sample's
// on a twin generator, and leave both generators in the same state.
func TestRNGSampleIntoMatchesSample(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	buf := make([]int, 3)
	for _, nk := range [][2]int{{10, 4}, {50, 50}, {7, 1}, {64, 16}, {1, 0}} {
		want := a.Sample(nk[0], nk[1])
		buf = b.SampleInto(buf, nk[0], nk[1])
		if !slices.Equal(buf, want) {
			t.Fatalf("SampleInto(%d, %d) = %v, Sample = %v", nk[0], nk[1], buf, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators diverged after drawing %d of %d", nk[1], nk[0])
		}
	}
}

func TestRNGSampleOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample(3, 4) did not panic")
		}
	}()
	NewRNG(1).Sample(3, 4)
}

func TestSampleStatistics(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if got := s.StdDev(); got != 2 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := s.Percentile(50); got != 4 {
		t.Fatalf("P50 = %v, want 4", got)
	}
	if got := s.Percentile(100); got != 9 {
		t.Fatalf("P100 = %v, want 9", got)
	}
	if got := s.Percentile(0); got != 2 {
		t.Fatalf("P0 = %v, want 2", got)
	}
}

func TestSampleEmptySafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample statistics not zero")
	}
}

func TestSamplePercentileDoesNotMutate(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	s.Add(2)
	s.Percentile(50)
	// values must retain insertion order so later Adds keep min/max valid
	if s.values[0] != 3 || s.values[1] != 1 || s.values[2] != 2 {
		t.Fatalf("Percentile mutated sample: %v", s.values)
	}
}

func TestSampleAddTime(t *testing.T) {
	var s Sample
	s.AddTime(Time(100))
	if s.Mean() != 100 {
		t.Fatalf("AddTime mean = %v, want 100", s.Mean())
	}
	// AddTime must keep the observation, not only summarize it.
	if v := s.Values(); len(v) != 1 || v[0] != 100 {
		t.Fatalf("AddTime kept %v, want [100]", v)
	}
}

func TestChaosShufflesTiesDeterministically(t *testing.T) {
	run := func(seed uint64) []int {
		e := NewEngine()
		if seed != 0 {
			e.Chaos(seed)
		}
		var order []int
		for i := 0; i < 20; i++ {
			i := i
			atFunc(e, 5, func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	fifo := run(0)
	for i, v := range fifo {
		if v != i {
			t.Fatal("FIFO order broken without chaos")
		}
	}
	a1, a2 := run(9), run(9)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("chaos runs with same seed differ")
		}
	}
	b := run(10)
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different chaos seeds gave identical order (unlikely)")
	}
	shuffled := false
	for i, v := range a1 {
		if v != i {
			shuffled = true
		}
	}
	if !shuffled {
		t.Fatal("chaos did not shuffle ties")
	}
}

func TestChaosPreservesTimeOrder(t *testing.T) {
	e := NewEngine()
	e.Chaos(3)
	var times []Time
	rng := NewRNG(4)
	for i := 0; i < 200; i++ {
		at := Time(rng.Intn(50))
		atFunc(e, at, func() { times = append(times, at) })
	}
	e.Run()
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("chaos violated time ordering")
		}
	}
}

// TestEngineCancelRemovesFromPending is the regression test for the
// cancel/heap interaction: cancelled events must leave the queue
// immediately, so Pending never counts dead events and a mass-cancelled
// queue reports empty.
func TestEngineCancelRemovesFromPending(t *testing.T) {
	e := NewEngine()
	var evs []Handle
	for i := 0; i < 100; i++ {
		evs = append(evs, atFunc(e, Time(i+1), func() { t.Fatal("cancelled event fired") }))
	}
	if e.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", e.Pending())
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after mass cancel = %d, want 0", e.Pending())
	}
	e.Run()
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d after running all-cancelled queue, want 0", e.Fired())
	}
}

// TestEngineCancelInterleaved cancels every other event (including from
// the middle of the heap) and checks the survivors still fire in order
// and the pending count tracks live events exactly.
func TestEngineCancelInterleaved(t *testing.T) {
	e := NewEngine()
	var fired []int
	var evs []Handle
	for i := 0; i < 50; i++ {
		i := i
		evs = append(evs, atFunc(e, Time(i+1), func() { fired = append(fired, i) }))
	}
	for i := 0; i < 50; i += 2 {
		e.Cancel(evs[i])
		// Double-cancel must stay a no-op.
		e.Cancel(evs[i])
	}
	if e.Pending() != 25 {
		t.Fatalf("Pending = %d, want 25", e.Pending())
	}
	e.Run()
	if len(fired) != 25 {
		t.Fatalf("fired %d events, want 25", len(fired))
	}
	for j, i := range fired {
		if i != 2*j+1 {
			t.Fatalf("fired[%d] = %d, want %d", j, i, 2*j+1)
		}
	}
}

// TestSplitMix64KnownValues pins the splitmix64 finalizer against the
// reference outputs from Steele et al.'s published stream for seed 0.
func TestSplitMix64KnownValues(t *testing.T) {
	const gamma = 0x9E3779B97F4A7C15
	want := []uint64{
		0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
	}
	var state uint64
	for i, w := range want {
		if got := SplitMix64(state); got != w {
			t.Fatalf("SplitMix64 stream step %d = %#x, want %#x", i, got, w)
		}
		state += gamma
	}
}

// TestDeriveSeedProperties checks the seed-derivation contract the sweep
// engine relies on: deterministic, index-sensitive, base-sensitive and
// never zero (xorshift64* cannot hold a zero state).
func TestDeriveSeedProperties(t *testing.T) {
	if DeriveSeed(42, 7) != DeriveSeed(42, 7) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[uint64]bool{}
	for base := uint64(0); base < 4; base++ {
		for idx := uint64(0); idx < 256; idx++ {
			s := DeriveSeed(base, idx)
			if s == 0 {
				t.Fatalf("DeriveSeed(%d,%d) = 0", base, idx)
			}
			if seen[s] {
				t.Fatalf("DeriveSeed(%d,%d) collides within a small grid", base, idx)
			}
			seen[s] = true
		}
	}
}

// TestSampleJSONRoundTrip checks the marshal/unmarshal pair the result
// store depends on (a sweep point's stored JSON carries its latency
// sample): values survive a round trip exactly and an empty sample stays
// empty.
func TestSampleJSONRoundTrip(t *testing.T) {
	var s Sample
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(v)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sample
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != s.N() || back.Mean() != s.Mean() ||
		back.Min() != s.Min() || back.Max() != s.Max() ||
		back.Percentile(50) != s.Percentile(50) {
		t.Fatalf("round trip changed sample: %+v vs %+v", back.Values(), s.Values())
	}
	var empty Sample
	b, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[]" {
		t.Fatalf("empty sample marshals to %s, want []", b)
	}
}

package workload

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

func TestTrafficLowLoadMatchesUncontendedLatency(t *testing.T) {
	res := RunTraffic(TrafficConfig{K: 8, Rate: 0.5, Duration: 20000})
	if res.Injected == 0 || res.Delivered != res.Injected {
		t.Fatalf("injected %d delivered %d", res.Injected, res.Delivered)
	}
	// At near-zero load the mean latency approaches the uncontended mean:
	// ~ inject(2) + h*(6) + 4 + L*2 with mean hop count ~5.3 on 8x8 and
	// L=7 flits: ~50 cycles. Allow generous headroom.
	if m := res.Latency.Mean(); m < 20 || m > 90 {
		t.Fatalf("low-load mean latency = %v, want ~50", m)
	}
	if res.DrainTime > 500 {
		t.Fatalf("low-load drain took %d cycles", res.DrainTime)
	}
}

func TestTrafficLatencyGrowsWithLoad(t *testing.T) {
	low := RunTraffic(TrafficConfig{K: 8, Rate: 1, Duration: 20000})
	high := RunTraffic(TrafficConfig{K: 8, Rate: 30, Duration: 20000})
	if high.Latency.Mean() <= low.Latency.Mean() {
		t.Fatalf("latency did not grow with load: %v vs %v",
			low.Latency.Mean(), high.Latency.Mean())
	}
	if high.AvgLinkUtilization <= low.AvgLinkUtilization {
		t.Fatal("utilization did not grow with load")
	}
}

func TestTrafficDeterministic(t *testing.T) {
	a := RunTraffic(TrafficConfig{K: 8, Rate: 5, Duration: 10000, Seed: 3})
	b := RunTraffic(TrafficConfig{K: 8, Rate: 5, Duration: 10000, Seed: 3})
	if a.Injected != b.Injected || a.Latency.Mean() != b.Latency.Mean() {
		t.Fatal("traffic runs nondeterministic")
	}
}

// TestTrafficAllocsIndependentOfLength pins the pooled traffic worm: a run
// four times as long delivers about four times the worms, yet allocates
// almost nothing more. What remains (about 0.005 allocations per extra worm
// at this load) is amortised growth that stops once the run has seen its
// peak: the engine's calendar buckets and the waiter queues. A worm built
// as a literal (path, flags and per-worm channel bookkeeping) costs about
// eight allocations. The bytes are bounded too (about 1.4 per extra worm):
// the run summarizes the worms' latencies rather than logging them, and a
// float64 log grown by append costs about 37 bytes per worm. The rate is
// below saturation, where the worm pool stays bounded.
func TestTrafficAllocsIndependentOfLength(t *testing.T) {
	run := func(d sim.Time) (allocs, bytes float64, delivered uint64) {
		cfg := TrafficConfig{K: 8, Rate: 5, Duration: d}
		allocs, bytes = allocated(func() { delivered = RunTraffic(cfg).Delivered })
		return allocs, bytes, delivered
	}
	shortAllocs, shortBytes, shortWorms := run(20000)
	longAllocs, longBytes, longWorms := run(80000)
	if longWorms < 3*shortWorms {
		t.Fatalf("delivered %d worms at 80 000 cycles vs %d at 20 000", longWorms, shortWorms)
	}
	extra := float64(longWorms - shortWorms)
	perWorm, bytesPerWorm := (longAllocs-shortAllocs)/extra, (longBytes-shortBytes)/extra
	t.Logf("%.3f allocations and %.2f bytes per extra delivered worm", perWorm, bytesPerWorm)
	if perWorm >= 0.05 {
		t.Fatalf("%.3f allocations per extra delivered worm (%v for %d worms, %v for %d), want < 0.05",
			perWorm, shortAllocs, shortWorms, longAllocs, longWorms)
	}
	if bytesPerWorm >= 8 {
		t.Fatalf("%.2f bytes per extra delivered worm (%v for %d worms, %v for %d), want < 8",
			bytesPerWorm, shortBytes, shortWorms, longBytes, longWorms)
	}
}

// allocated runs fn once to warm up and once measured, as
// testing.AllocsPerRun(1, fn) does, and returns the heap allocations and
// bytes of the measured run.
func allocated(fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

func TestTrafficZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate did not panic")
		}
	}()
	RunTraffic(TrafficConfig{K: 4})
}

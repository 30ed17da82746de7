package service

//simcheck:allow-file nogoroutine -- overload tests drive concurrent Resolves against a saturated pool

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// TestResolveShedsAtQueueDepth pins the overload behavior the load tester
// reconciles against: with one worker occupied and the one-deep run queue
// full, further distinct points are refused with ErrQueueFull immediately
// (no unbounded backlog), every shed is counted in Counters.Shed, and the
// admitted work still completes untouched once the worker frees up.
func TestResolveShedsAtQueueDepth(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	blocking := func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
		started <- struct{}{}
		<-release
		return sweep.Measures{HomeMsgs: float64(p.D), Completed: p.Trials}, metrics.NewCollector(p.K * p.K)
	}
	svc := newTestService(t, Config{
		Workers:    1,
		QueueDepth: 1,
		RunPoint:   blocking,
	})

	type res struct {
		src Source
		err error
	}
	resolve := func(variant int, out chan<- res) {
		go func() { //simcheck:allow nogoroutine -- concurrent clients are the scenario under test
			_, _, src, err := svc.Resolve(context.Background(), testPoint(0, variant), 0, "overload")
			out <- res{src, err}
		}()
	}

	// First point occupies the single worker (blocked inside the engine).
	first := make(chan res, 1)
	resolve(1, first)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first point")
	}

	// Second distinct point fills the one-deep queue. It is pushed from the
	// client goroutine, so wait until the depth is observable.
	second := make(chan res, 1)
	resolve(2, second)
	deadline := time.After(10 * time.Second)
	for svc.QueueDepth() != 1 {
		select {
		case <-deadline:
			t.Fatalf("queue depth %d; second point never queued", svc.QueueDepth())
		default:
			runtime.Gosched()
		}
	}

	// Worker busy, queue full: the shedder must refuse further distinct
	// points, synchronously from the caller's view.
	const shedWant = 3
	for i := 0; i < shedWant; i++ {
		_, _, _, err := svc.Resolve(context.Background(), testPoint(0, 10+i), 0, "overload")
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overload Resolve %d: err=%v; want ErrQueueFull", i, err)
		}
	}
	counters := svc.Metrics().Counters()
	if counters.Shed != shedWant {
		t.Fatalf("Shed = %d after %d refusals; want %d", counters.Shed, shedWant, shedWant)
	}

	// Release the engine: both admitted points finish as real runs.
	close(release)
	for name, ch := range map[string]chan res{"first": first, "second": second} {
		select {
		case r := <-ch:
			if r.err != nil || r.src != SourceRun {
				t.Fatalf("%s point: src=%q err=%v; want a clean engine run", name, r.src, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s point never completed after release", name)
		}
	}

	// Final ledger: 2 resolved (both engine runs), 3 shed, and the shed
	// requests stay out of Requests so ShedRate is shed/arrivals = 3/5.
	counters = svc.Metrics().Counters()
	if counters.Requests != 2 || counters.Runs != 2 {
		t.Fatalf("requests=%d runs=%d; want 2/2", counters.Requests, counters.Runs)
	}
	if counters.Shed != shedWant || counters.DuplicateRuns != 0 {
		t.Fatalf("shed=%d dup=%d; want %d/0", counters.Shed, counters.DuplicateRuns, shedWant)
	}
	if got, want := counters.ShedRate(), 3.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ShedRate = %v; want %v", got, want)
	}
}

// TestShedRateZeroValue: an idle service reports rate 0, not NaN.
func TestShedRateZeroValue(t *testing.T) {
	var c Counters
	if r := c.ShedRate(); r != 0 {
		t.Fatalf("zero counters ShedRate = %v; want 0", r)
	}
	c.Shed = 4
	if r := c.ShedRate(); r != 1 {
		t.Fatalf("all-shed ShedRate = %v; want 1", r)
	}
}

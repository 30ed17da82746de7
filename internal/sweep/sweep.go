// Package sweep is the parallel experiment-sweep engine: it fans a grid of
// points out across a pool of worker goroutines, each running a fully
// isolated simulation, and each worker records its point's result at the
// point's index. A point is an invalidation experiment (scheme x mesh size x
// sharer distribution x seed), optionally homed at one node, or one hot-spot
// burst, one application replay or one uniform-traffic run; its outcome is
// the serializable Measures, which is all a figure reads.
//
// Determinism: every point carries its own RNG seed (derived with splitmix
// from a base seed and the point index, see sim.DeriveSeed), every point
// runs on a private machine, and aggregation is by point index rather than
// completion order — so the output of a parallel sweep is bit-for-bit
// identical to the sequential run, just N-cores faster. The determinism
// regression test in determinism_test.go pins this property, including
// under chaos event ordering.
//
// Robustness: Run honors context cancellation and supports a wall-clock
// per-point timeout that marks a point's result partial instead of failing
// the sweep. Run keeps no durable state of its own: a point is named by its
// content (Point.Fingerprint), so a caller that wants a killed sweep to
// resume substitutes Options.RunPoint with one that serves stored results.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/coherence"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Point is one cell of a sweep grid. Index must equal the point's position
// in the slice passed to Run; every other field says what the point
// computes.
type Point struct {
	Index   int              `json:"index"`
	K       int              `json:"k"`
	Scheme  grouping.Scheme  `json:"scheme"`
	D       int              `json:"d"`
	Pattern workload.Pattern `json:"pattern"`
	Trials  int              `json:"trials"`
	Seed    uint64           `json:"seed"`
	// ChaosSeed, when nonzero, runs the point's machine under chaos
	// (seeded-random same-time) event ordering.
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	// Faults, when non-nil and enabled, injects deterministic faults into
	// the point's fabric and arms the protocol recovery machinery (see
	// internal/faults).
	Faults *faults.Config `json:"faults,omitempty"`
	// Tune, when non-nil, is the machine variant the point runs on instead
	// of DefaultParams.
	Tune *coherence.Variant `json:"tune,omitempty"`
	// At most one of Home, HotSpot, App and OfferedLoad is set; none runs
	// Trials invalidation transactions homed at the mesh center. Home homes
	// them at that node instead. HotSpot makes the point one concurrent-write
	// burst, App names an application (apps.ByName) replayed on a K x K
	// machine, and OfferedLoad makes it one uniform-random unicast traffic
	// run on a K x K mesh at that many worms per node per 1000 cycles
	// (workload.RunTraffic, with Seed as its stream seed). Each of the last
	// three is one trial.
	Home        *topology.NodeID `json:"home,omitempty"`
	HotSpot     *HotSpot         `json:"hot_spot,omitempty"`
	App         string           `json:"app,omitempty"`
	OfferedLoad float64          `json:"offered_load,omitempty"`
}

// Measures is the serializable outcome of one point — the per-transaction
// means the paper's tables are built from, plus the full latency sample of
// an invalidation or burst point.
type Measures struct {
	Latency   sim.Sample `json:"latency"`
	HomeMsgs  float64    `json:"home_msgs"`
	Groups    float64    `json:"groups"`
	FlitHops  float64    `json:"flit_hops"`
	Messages  float64    `json:"messages"`
	Completed int        `json:"completed"`
	// Retries and Drops are the fault-recovery means (per transaction and
	// per trial respectively); zero for fault-free points, so stored results
	// without the fields load unchanged.
	Retries float64 `json:"retries,omitempty"`
	Drops   float64 `json:"drops,omitempty"`
	// Makespan and GatherWaits are a burst's: the cycles from the
	// simultaneous issue to the last write grant, and the i-gather worms that
	// found an ack not yet posted. Occupancy is its profile, when asked for.
	Makespan    sim.Time           `json:"makespan,omitempty"`
	GatherWaits uint64             `json:"gather_waits,omitempty"`
	Occupancy   *OccupancyMeasures `json:"occupancy,omitempty"`
	// App is an application replay's outcome.
	App *AppMeasures `json:"app,omitempty"`
	// TrafficLatency and LinkUtil are a traffic point's mean per-worm
	// latency and mean link busy fraction.
	TrafficLatency float64 `json:"traffic_latency,omitempty"`
	LinkUtil       float64 `json:"link_util,omitempty"`
}

// MeasuresOf extracts the serializable measures from an InvalResult.
func MeasuresOf(r workload.InvalResult) Measures {
	return Measures{
		Latency:   r.Latency,
		HomeMsgs:  r.HomeMsgs,
		Groups:    r.Groups,
		FlitHops:  r.FlitHops,
		Messages:  r.Messages,
		Completed: r.Completed,
		Retries:   r.Retries,
		Drops:     r.Drops,
	}
}

// Result is one point's outcome.
type Result struct {
	Point    Point    `json:"point"`
	Measures Measures `json:"measures"`
	// Partial marks a point stopped early by cancellation or the per-point
	// timeout: Measures covers only Measures.Completed of Point.Trials
	// trials.
	Partial bool `json:"partial,omitempty"`
	// Elapsed is the wall-clock run time of the point. It is deliberately
	// excluded from serialization: it is the one nondeterministic field.
	Elapsed time.Duration `json:"-"`
	// Ran reports whether the point runner was called at all; false means
	// the sweep was cancelled before the point started.
	Ran bool `json:"-"`
}

// Options configures Run. The zero value runs with GOMAXPROCS workers, no
// timeout and no progress reporting.
type Options struct {
	// Parallel is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Parallel int
	// PointTimeout, when positive, bounds each point's wall-clock run time.
	// A point that exceeds it stops at the next trial boundary and its
	// result is marked Partial — the sweep itself keeps going, and a rerun
	// over the result store retries the point. Timeouts are
	// wall-clock and therefore nondeterministic; leave zero for
	// reproducibility-critical runs.
	PointTimeout time.Duration
	// OnProgress, when set, receives a Progress update after every
	// completed point. Calls are serialized, one at a time in completion
	// order, and may run on any worker's goroutine.
	OnProgress func(Progress)
	// RunPoint substitutes the point runner; nil runs the engine directly
	// (RunPointDirect). The serving layer (internal/service) intercepts
	// here to route points through the content-addressed result store;
	// tests use it to fake the engine. A substitute must preserve the
	// engine's contract: identical points yield identical Measures, and a
	// context-cancelled run returns Measures.Completed < Point.Trials. Run
	// ignores the returned collector.
	RunPoint func(ctx context.Context, p Point) (Measures, *metrics.Collector)
}

// Validate checks the options for contradictions that Run would otherwise
// surface late or silently normalize. Run calls it first; dsmsimctl
// experiment also calls it at flag-parse time so misconfigurations fail
// before any point runs.
func (o Options) Validate() error {
	if o.Parallel < 0 {
		return fmt.Errorf("sweep: Parallel is %d; want >= 0 (0 means all cores)", o.Parallel)
	}
	if o.PointTimeout < 0 {
		return fmt.Errorf("sweep: PointTimeout is %v; want >= 0 (0 means no timeout)", o.PointTimeout)
	}
	return nil
}

// Summary is the outcome of a sweep.
type Summary struct {
	// Results holds one entry per point, in point order regardless of
	// completion order.
	Results []Result
	// Elapsed is the sweep's wall-clock duration.
	Elapsed time.Duration
	// Completed counts points with a result; Partial counts results marked
	// partial.
	Completed, Partial int
}

// RunPointDirect is the production point runner: RunPointRecorded with no
// recorder. It is exported so layers that substitute Options.RunPoint (the
// serving daemon's cache/coalesce hook) can fall through to the real engine.
func RunPointDirect(ctx context.Context, p Point) (Measures, *metrics.Collector) {
	return RunPointRecorded(ctx, p, nil)
}

// RunPointRecorded runs one isolated simulation of p via workload.RunInval,
// workload.RunHotSpot, apps.Run or workload.RunTraffic, by the point's kind,
// recording into rec unless it is nil; the Measures are the same either way.
// It also returns an invalidation point's raw collector (nil for the other
// kinds), which Run ignores: the Measures are the point's whole outcome.
func RunPointRecorded(ctx context.Context, p Point, rec *trace.Recorder) (Measures, *metrics.Collector) {
	switch {
	case p.HotSpot != nil:
		return runHotSpot(p, rec), nil
	case p.App != "":
		return runApp(p, rec), nil
	case p.OfferedLoad != 0:
		return runTraffic(p, rec), nil
	}
	res := workload.RunInval(workload.InvalConfig{
		K: p.K, Scheme: p.Scheme, D: p.D, Pattern: p.Pattern,
		Trials: p.Trials, Seed: p.Seed, ChaosSeed: p.ChaosSeed,
		Faults: p.Faults, Tune: p.Tune, Home: p.Home, Recorder: rec,
		Interrupt: func() bool { return ctx.Err() != nil },
	})
	return MeasuresOf(res), res.Metrics
}

// Run executes every point and returns the summary. It returns early
// (with the results gathered so far and ctx.Err) when ctx is cancelled:
// queued points are abandoned, in-flight points stop at their next trial
// boundary and are marked Partial. A point runner's panic is re-raised on the
// calling goroutine once the other workers have finished. Each worker records
// its own point's result; a one-point sweep runs on the calling goroutine.
func Run(ctx context.Context, points []Point, opts Options) (*Summary, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	for i := range points {
		if points[i].Index != i {
			return nil, fmt.Errorf("sweep: point %d has Index %d (must equal position)", i, points[i].Index)
		}
		if err := points[i].Check(); err != nil {
			return nil, fmt.Errorf("sweep: point %d %w", i, err)
		}
	}
	run := opts.RunPoint
	if run == nil {
		run = RunPointDirect
	}

	start := time.Now() //simcheck:allow determinism -- wall-clock ETA reporting, not simulation state
	sum := &Summary{Results: make([]Result, len(points))}
	for i, p := range points {
		sum.Results[i] = Result{Point: p}
	}

	var mu sync.Mutex // guards sum and serializes OnProgress (which cannot reach mu)
	Each(opts.Parallel, len(points), func(i int) {
		if ctx.Err() != nil {
			return
		}
		p := points[i]
		pctx := ctx
		if opts.PointTimeout > 0 {
			var cancel context.CancelFunc
			pctx, cancel = context.WithTimeout(ctx, opts.PointTimeout)
			defer cancel()
		}
		t0 := time.Now() //simcheck:allow determinism -- per-point wall-clock timing for reports
		meas, _ := run(pctx, p)
		res := Result{
			Point: p, Measures: meas, Partial: meas.Completed < p.Trials, Ran: true,
			Elapsed: time.Since(t0), //simcheck:allow determinism -- wall-clock elapsed, reporting only
		}

		mu.Lock()
		defer mu.Unlock()
		sum.Results[i] = res
		sum.Completed++
		if res.Partial {
			sum.Partial++
		}
		if opts.OnProgress != nil {
			elapsed := time.Since(start) //simcheck:allow determinism -- wall-clock elapsed, reporting only
			opts.OnProgress(Progress{
				Done:         sum.Completed,
				Total:        len(points),
				Partial:      sum.Partial,
				Last:         p,
				Elapsed:      elapsed,
				PointsPerSec: float64(sum.Completed) / elapsed.Seconds(),
			})
		}
	})
	sum.Elapsed = time.Since(start) //simcheck:allow determinism -- wall-clock elapsed, reporting only
	return sum, ctx.Err()
}

// Each runs fn(0) .. fn(n-1) on min(parallel, n) worker goroutines and
// returns when all have finished. It is Run's worker pool, and the fan-out
// for work that is not a point and is never stored (the oracle's per-scheme
// checks, the benchmark's warm-up runs): fn must write its result only to
// its own index's slot, and determinism then follows from indexing rather
// than scheduling order.
// parallel <= 0 means runtime.GOMAXPROCS(0). A panic in fn is re-raised on
// the calling goroutine, where a recover can see it, once the other workers
// have finished.
func Each(parallel, n int, fn func(i int)) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	call := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				once.Do(func() { panicked = v })
			}
		}()
		fn(i)
	}
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				call(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

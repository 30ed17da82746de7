// Command invalsweep regenerates the paper's evaluation: the sharer-count
// sweeps (latency / occupancy / traffic), the mesh-size sweep, the i-ack
// buffer sensitivity study, the hot-spot burst experiment, the placement and
// consumption-channel ablations, and the application tables.
//
// Usage:
//
//	invalsweep -experiment latency -k 16 -trials 10
//	invalsweep -experiment table6    # application characteristics only
//	invalsweep -experiment all -csv
//
// Experiments: latency, homemsgs (E5, home messages per transaction),
// traffic, meshsize, buffers, hotspot, placement, cons, table4, table5,
// faults, degraded (E28, graceful degradation under permanent link death),
// occupancy (E27, the trace-derived busy-time profile), table6 (application
// characteristics), apps (E9, application execution time per framework),
// all; see experiments.RunnerOrder for the full list.
//
// Sweeps run on a worker pool (-parallel, default all cores); the tables
// are byte-identical at any worker count. The invalidation sweeps, hot-spot
// bursts, application replays and uniform-traffic runs are sweep points; a
// few extension figures (consistency, forwarding, update, barrier,
// congestion, threehop, table4, table5) build their machines inline and are
// never stored. Every sweep point is looked up in
// a content-addressed result store before it runs, and stored once it
// completes: in memory for the run by default, so a point two experiments
// share runs once, or in the directory -data names, so a rerun (after a kill,
// or of another experiment) runs only the points not stored yet. dsmsimd
// -data over the same directory serves those results. Progress goes to
// stderr (-progress=false to silence), followed by one "N points from the
// store, M run" line; stdout carries only the tables. An interrupt (ctrl-C)
// stops the sweep at the next trial boundary and emits the partial table
// instead of dying mid-run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("invalsweep: ")
	var (
		exp      = flag.String("experiment", "all", "which experiment to run")
		k        = flag.Int("k", experiments.DefaultK, "mesh dimension for the sweeps")
		d        = flag.Int("d", experiments.DefaultD, "sharers for fixed-d experiments")
		trials   = flag.Int("trials", experiments.DefaultTrials, "trials per configuration")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker goroutines")
		progress = flag.Bool("progress", true, "report sweep progress on stderr")
		timeout  = flag.Duration("point-timeout", 0, "wall-clock budget per sweep point (0 = none); overrunning points are marked partial")
		data     = flag.String("data", "", "result directory: stored points are not rerun, completed ones are stored (empty = in memory for this run)")
	)
	flag.Parse()

	store, err := service.OpenStore(*data, 0)
	if err != nil {
		log.Fatal(err)
	}
	runner := &storeRunner{store: store}
	// First ctrl-C cancels the sweep gracefully (partial table emitted, every
	// completed point already stored); a second one falls back to the default
	// kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	lab := experiments.Lab{Ctx: ctx, Sweep: sweep.Options{
		Parallel:     *parallel,
		PointTimeout: *timeout,
		RunPoint:     runner.run,
	}}
	if err := lab.Sweep.Validate(); err != nil {
		log.Fatal(err)
	}
	if *progress {
		lab.Sweep.OnProgress = sweep.Reporter(os.Stderr, time.Second)
	}
	tally := func() { log.Printf("%d points from the store, %d run", runner.hits.Load(), runner.runs.Load()) }
	defer tally()

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.RunnerOrder
	}
	for _, name := range names {
		if ctx.Err() != nil {
			log.Printf("interrupted; skipping remaining experiments from %q on", name)
			break
		}
		t, err := lab.Run(name, *k, *d, *trials)
		if err != nil {
			tally()
			log.Fatal(err)
		}
		if *csv {
			fmt.Fprint(os.Stdout, t.CSV())
		} else {
			fmt.Fprintln(os.Stdout, t.String())
		}
	}
}

// storeRunner is the sweep's point runner over a result store: a point
// whose fingerprint is stored is served from the store, any other runs on
// the engine and is stored if it completed. A point the per-point timeout or
// an interrupt cut short is never stored, so a rerun re-attempts it. A store
// error, a conflicting result included (ErrImmutable: the engine was not
// deterministic), panics, the experiment layer's error convention, and
// Lab.Run returns it as the run's error.
type storeRunner struct {
	store      service.ResultStore
	hits, runs atomic.Int64
}

func (r *storeRunner) run(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
	fp := p.Fingerprint()
	m, ok, err := r.store.Get(fp)
	if err != nil {
		panic(err)
	}
	if ok {
		r.hits.Add(1)
		return m, nil
	}
	r.runs.Add(1)
	m, coll := sweep.RunPointDirect(ctx, p)
	if m.Completed >= p.Trials {
		if err := r.store.Put(fp, m); err != nil {
			panic(err)
		}
	}
	return m, coll
}

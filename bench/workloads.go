//simcheck:allow-file determinism,nogoroutine -- workloads time wall-clock host cost and fan runs over two worker goroutines by design; inputs are seeded through sim.DeriveSeed

package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/coherence"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

// parallel is the one parallelism constant of the benchmark: sweep workers,
// daemon engine workers and closed-loop HTTP clients. The sandbox has two
// cores; a constant keeps runs comparable across hosts.
const parallel = 2

// nominalSeconds is the window length the fixed work sizes below were timed
// to land near on the 2-core sandbox. -seconds scales the work linearly
// (scale = seconds / nominalSeconds); nothing is ever calibrated at run time.
const nominalSeconds = 12

// Independent splitmix streams of the run seed, one per input family.
const (
	streamInval = iota + 1
	streamTraffic
	streamApps
	streamUniverse
	streamSchedule
	streamProbe
)

// config is what a workload is built from: the seed and the work scale.
type config struct {
	seed  uint64
	scale float64
	// dir is the benchmark's own directory (holds out/ and testdata/).
	dir string
}

// scaled returns round(n * scale), at least min.
func (c config) scaled(n, min int) int {
	v := int(math.Round(float64(n) * c.scale))
	if v < min {
		v = min
	}
	return v
}

// window is what one measured window reports besides its wall time.
type window struct {
	// ops is the fixed op count of the window (the numerator of
	// ops_per_s); attempted and failed count the same unit.
	ops, attempted, failed int64
	// lat is the per-unit latency sample (one request, sweep point, run).
	lat []time.Duration
	// sim holds the simulated statistics the pins compare, by key.
	sim map[string]float64
	// broken lists violated invariants; each counts toward sim_drift.
	broken []string
	// counts are exact counts the per-layer metrics and the attribution
	// use (events, flit hops, transactions, ...).
	counts map[string]float64
	// root is the bench.window span of a traced window.
	root int32
}

func newWindow() *window {
	return &window{sim: map[string]float64{}, counts: map[string]float64{}}
}

// prepared is a workload after set-up: inputs generated, warm-up done.
type prepared interface {
	run(tr *tracer) *window
	close()
}

// workloadDef names a workload and says why it is in the benchmark.
type workloadDef struct {
	name    string
	why     string
	opUnit  string
	latUnit string
	setup   func(c config, traced bool) (prepared, error)
}

var workloads = []workloadDef{
	{
		name:    "inval-sweep",
		why:     "The paper's invalidation-latency grid (k 16/32 x 9 schemes x d 4/16/64) through sweep.Run: sim+network+coherence+grouping do the work, service none; the only workload where grouping matters.",
		opUnit:  "invalidation transaction",
		latUnit: "sweep point",
		setup:   setupInvalSweep,
	},
	{
		name:    "net-traffic",
		why:     "Below-saturation uniform unicast traffic on a 16x16 mesh: network+sim only, so it amplifies a per-hop gain and must not move for any coherence, grouping or service change.",
		opUnit:  "delivered worm",
		latUnit: "traffic run",
		setup:   setupNetTraffic,
	},
	{
		name:    "app-replay",
		why:     "Barnes-Hut, LU and APSP reference streams replayed on 8x8 and 4x4 machines: ~97% reads, hits, read misses and barriers, so a gain on the invalidation path that costs the read path shows here.",
		opUnit:  "shared-memory reference",
		latUnit: "application run",
		setup:   setupAppReplay,
	},
	{
		name:    "serve-warm",
		why:     "Closed-loop HTTP against a pre-filled in-memory dsmsimd: 100% cache hits, so service (HTTP, JSON, fingerprint, store) does all the work and every simulator optimisation is bypassed.",
		opUnit:  "HTTP request",
		latUnit: "HTTP request",
		setup:   setupServeWarm,
	},
	{
		name:    "serve-tiered",
		why:     "dsmsimd's tiered store, 64-entry memory LRU over 512 results on disk, Zipf 1.0: memory hits, disk reads, promotions, evictions. Journal off (unsteady disk), no engine runs (queue.go race).",
		opUnit:  "HTTP request",
		latUnit: "HTTP request",
		setup:   setupServeTiered,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- inval-sweep ---------------------------------------------------------

type invalSweep struct {
	points []sweep.Point
}

func invalGrid(c config, trials int) []sweep.Point {
	return sweep.Grid(sweep.GridConfig{
		Ks:       []int{16, 32},
		Schemes:  grouping.AllSchemes,
		Ds:       []int{4, 16, 64},
		Pattern:  workload.RandomPlacement,
		Trials:   trials,
		BaseSeed: sim.DeriveSeed(c.seed, streamInval),
	})
}

func setupInvalSweep(c config, traced bool) (prepared, error) {
	trials := c.scaled(1200, 1)
	warm := invalGrid(c, (trials+9)/10)
	if _, err := sweep.Run(context.Background(), warm, sweep.Options{Parallel: parallel}); err != nil {
		return nil, fmt.Errorf("inval-sweep warm-up: %w", err)
	}
	return &invalSweep{points: invalGrid(c, trials)}, nil
}

func (w *invalSweep) close() {}

func (w *invalSweep) run(tr *tracer) *window {
	win := newWindow()
	opts := sweep.Options{Parallel: parallel}
	var events atomic.Uint64
	if tr != nil {
		win.root = tr.begin(0, -1, "bench.window")
		// The traced pass substitutes the point runner to record one span
		// per point and to read EngineEvents, which Measures does not carry;
		// it maps the point onto RunInval exactly as RunPointDirect does.
		opts.RunPoint = func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			id := tr.begin(win.root, int32(p.Index), "sweep.point")
			res := workload.RunInval(workload.InvalConfig{
				K: p.K, Scheme: p.Scheme, D: p.D, Pattern: p.Pattern,
				Trials: p.Trials, Seed: p.Seed, ChaosSeed: p.ChaosSeed,
				Faults: p.Faults, Tune: p.Tune,
				Interrupt: func() bool { return ctx.Err() != nil },
			})
			tr.end(id)
			events.Add(res.EngineEvents)
			return sweep.MeasuresOf(res), res.Metrics
		}
	}
	sum, err := sweep.Run(context.Background(), w.points, opts)
	tr.end(win.root)
	if err != nil {
		win.broken = append(win.broken, "sweep.Run: "+err.Error())
	}
	var flitHops float64
	for _, r := range sum.Results {
		p := r.Point
		win.ops += int64(p.Trials)
		win.attempted += int64(p.Trials)
		done := r.Measures.Completed
		if r.Partial || !r.Ran {
			done = 0
		}
		win.failed += int64(p.Trials - done)
		win.lat = append(win.lat, r.Elapsed)
		key := fmt.Sprintf("k%d/%s/d%d/", p.K, p.Scheme, p.D)
		win.sim[key+"latency"] = r.Measures.Latency.Mean()
		win.sim[key+"home_msgs"] = r.Measures.HomeMsgs
		win.sim[key+"flit_hops"] = r.Measures.FlitHops
		win.sim[key+"messages"] = r.Measures.Messages
		flitHops += r.Measures.FlitHops * float64(r.Measures.Completed)
		// One Groups call per invalidation transaction; D read misses
		// install the sharers before each write.
		win.counts[fmt.Sprintf("grouping.calls.d%d", p.D)] += float64(r.Measures.Completed)
		win.counts["read_misses"] += float64(p.D * r.Measures.Completed)
		win.counts["write_misses"] += float64(r.Measures.Completed)
		win.counts[fmt.Sprintf("machines.k%d", p.K)]++
	}
	win.counts["txns"] = float64(win.ops - win.failed)
	win.counts["points"] = float64(len(w.points))
	win.counts["flit_hops"] = math.Round(flitHops)
	win.counts["events"] = float64(events.Load())
	return win
}

// ---- net-traffic ---------------------------------------------------------

// trafficMix is the four offered loads of net-traffic, all below saturation
// on a 16x16 mesh: short control worms at two rates, long data worms at two.
var trafficMix = []struct {
	payload int
	rate    float64
}{{4, 1}, {4, 2}, {20, 0.5}, {20, 1}}

type netTraffic struct {
	runs []workload.TrafficConfig
}

func setupNetTraffic(c config, traced bool) (prepared, error) {
	// 28 seeds x 4 loads x 200 000 cycles at scale 1. Many short runs
	// rather than few long ones: the two workers stay level to the end of
	// the window and the latency percentiles have samples beyond them.
	reps := int(math.Ceil(28 * c.scale))
	duration := sim.Time(math.Round(200000 * 28 * c.scale / float64(reps)))
	if duration < 2000 {
		duration = 2000
	}
	w := &netTraffic{}
	base := sim.DeriveSeed(c.seed, streamTraffic)
	for rep := 0; rep < reps; rep++ {
		for _, mix := range trafficMix {
			w.runs = append(w.runs, workload.TrafficConfig{
				K: 16, Rate: mix.rate, Duration: duration, PayloadFlits: mix.payload,
				Seed: sim.DeriveSeed(base, uint64(len(w.runs))),
			})
		}
	}
	warm := (len(w.runs) + 9) / 10
	sweep.Each(parallel, warm, func(i int) { workload.RunTraffic(w.runs[i]) })
	return w, nil
}

func (w *netTraffic) close() {}

func (w *netTraffic) run(tr *tracer) *window {
	win := newWindow()
	win.root = tr.begin(0, -1, "bench.window")
	results := make([]workload.TrafficResult, len(w.runs))
	panics := make([]string, len(w.runs))
	win.lat = make([]time.Duration, len(w.runs))
	sweep.Each(parallel, len(w.runs), func(i int) {
		id := tr.begin(win.root, int32(i), "workload.RunTraffic")
		t0 := time.Now()
		panics[i] = guard(func() { results[i] = workload.RunTraffic(w.runs[i]) })
		win.lat[i] = time.Since(t0)
		tr.end(id)
	})
	tr.end(win.root)
	hdr := network.DefaultConfig().HeaderFlits(1)
	hops := meanUnicastHops(16)
	for i, r := range results {
		cfg := w.runs[i]
		if panics[i] != "" {
			// A run that died delivered nothing; charge it one failed op so
			// the ratio is non-zero, and say why.
			win.attempted++
			win.failed++
			win.broken = append(win.broken, fmt.Sprintf("run %d: %s", i, panics[i]))
			continue
		}
		win.ops += int64(r.Delivered)
		win.attempted += int64(r.Injected)
		win.failed += int64(r.Injected - r.Delivered)
		// Below saturation the fabric drains within a small fraction of
		// the injection window.
		if r.DrainTime > cfg.Duration/4+5000 {
			win.broken = append(win.broken, fmt.Sprintf("run %d saturated: drain %d cycles", i, r.DrainTime))
		}
		key := fmt.Sprintf("run%03d/p%d/r%g/", i, cfg.PayloadFlits, cfg.Rate)
		win.sim[key+"injected"] = float64(r.Injected)
		win.sim[key+"delivered"] = float64(r.Delivered)
		win.sim[key+"latency"] = r.Latency.Mean()
		win.sim[key+"drain"] = float64(r.DrainTime)
		// RunTraffic does not return the fabric's counters, so the flit-hop
		// total is an estimate: worms x flits x the mesh's mean unicast
		// distance. It feeds the attribution only, never a gate.
		win.counts["flit_hops_est"] += float64(r.Delivered) * float64(hdr+cfg.PayloadFlits) * hops
	}
	win.counts["worms"] = float64(win.ops)
	return win
}

// meanUnicastHops is the mean distance between two distinct uniform random
// nodes of a k x k mesh.
func meanUnicastHops(k int) float64 {
	mesh := topology.NewSquareMesh(k)
	var sum float64
	n := mesh.Nodes()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sum += float64(mesh.Distance(topology.NodeID(a), topology.NodeID(b)))
		}
	}
	return sum / float64(n*(n-1))
}

// guard runs fn and returns the panic message, if any. The simulator
// reports a wedged fabric by panicking; the benchmark counts that as a
// failed operation instead of dying mid-window.
func guard(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// ---- app-replay ----------------------------------------------------------

// appSchemes are the frameworks app-replay runs: the unicast baseline, the
// multidestination invalidation with unicast acks, and the full i-reserve /
// i-gather framework, all on e-cube routing. The other six schemes wedge the
// simulated fabric on some seeds at these sizes (see README, "What the
// benchmark found"), and a benchmark workload must be one where no
// operation fails.
var appSchemes = []grouping.Scheme{grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC}

type appRun struct {
	name   string
	w      *apps.Workload
	k      int
	scheme grouping.Scheme
	refs   int64
	reads  int64
}

type appReplay struct {
	runs []appRun
}

// appInputs generates one round of application reference streams: the
// 64-processor sizes on 8x8 and the paper's 16-processor sizes on 4x4. f in
// (0, 1] shrinks the problem sizes for smoke runs.
func appInputs(seed uint64, f float64) (ws []apps.Workload, ks []int) {
	size := func(n, min, multiple int) int {
		v := int(float64(n)*f) / multiple * multiple
		if v < min {
			v = min
		}
		return v
	}
	ws = []apps.Workload{
		apps.BarnesHut(apps.BarnesConfig{Bodies: size(512, 64, 1), Procs: 64, Seed: sim.DeriveSeed(seed, 0)}),
		apps.LU(apps.LUConfig{N: size(256, 64, 64), Procs: 64}),
		apps.APSP(apps.APSPConfig{Vertices: size(128, 64, 1), Procs: 64, Seed: sim.DeriveSeed(seed, 1)}),
		apps.BarnesHut(apps.BarnesConfig{Bodies: size(128, 16, 1), Seed: sim.DeriveSeed(seed, 2)}),
		apps.LU(apps.LUConfig{N: size(128, 32, 32)}),
		apps.APSP(apps.APSPConfig{Vertices: size(64, 16, 1), Seed: sim.DeriveSeed(seed, 3)}),
	}
	return ws, []int{8, 8, 8, 4, 4, 4}
}

func setupAppReplay(c config, traced bool) (prepared, error) {
	// Three rounds of freshly seeded inputs at scale 1; below a third of
	// the nominal scale one round of proportionally smaller problems.
	rounds := c.scaled(3, 1)
	f := math.Min(1, 3*c.scale)
	w := &appReplay{}
	base := sim.DeriveSeed(c.seed, streamApps)
	for round := 0; round < rounds; round++ {
		ws, ks := appInputs(sim.DeriveSeed(base, uint64(round)), f)
		for i := range ws {
			st := ws[i].Stats()
			for _, s := range appSchemes {
				w.runs = append(w.runs, appRun{
					name: fmt.Sprintf("r%d/%s/k%d/%s", round, ws[i].Name, ks[i], s),
					w:    &ws[i], k: ks[i], scheme: s,
					refs: int64(st.Reads + st.Writes), reads: int64(st.Reads),
				})
			}
		}
	}
	// Warm-up: the first round's 4x4 runs, about a tenth of the window.
	var warm []appRun
	for _, r := range w.runs[:len(w.runs)/rounds] {
		if r.k == 4 {
			warm = append(warm, r)
		}
	}
	sweep.Each(parallel, len(warm), func(i int) {
		apps.Run(coherence.NewMachine(coherence.DefaultParams(warm[i].k, warm[i].scheme)), *warm[i].w)
	})
	return w, nil
}

func (w *appReplay) close() {}

func (w *appReplay) run(tr *tracer) *window {
	win := newWindow()
	win.root = tr.begin(0, -1, "bench.window")
	results := make([]apps.RunResult, len(w.runs))
	panics := make([]string, len(w.runs))
	win.lat = make([]time.Duration, len(w.runs))
	var mu sync.Mutex
	sweep.Each(parallel, len(w.runs), func(i int) {
		r := w.runs[i]
		t0 := time.Now()
		id := tr.begin(win.root, int32(i), "coherence.NewMachine")
		m := coherence.NewMachine(coherence.DefaultParams(r.k, r.scheme))
		tr.end(id)
		id = tr.begin(win.root, int32(i), "apps.Run")
		panics[i] = guard(func() { results[i] = apps.Run(m, *r.w) })
		tr.end(id)
		win.lat[i] = time.Since(t0)
		mu.Lock()
		win.counts["events"] += float64(m.Engine.Fired())
		win.counts["flit_hops"] += float64(m.Net.Stats().FlitHops)
		mu.Unlock()
	})
	tr.end(win.root)
	for i, r := range w.runs {
		win.attempted += r.refs
		if panics[i] != "" {
			win.failed += r.refs
			win.broken = append(win.broken, r.name+": "+panics[i])
			continue
		}
		win.ops += r.refs
		res := results[i]
		win.sim[r.name+"/cycles"] = float64(res.Time)
		win.sim[r.name+"/invals"] = float64(res.Invals)
		win.sim[r.name+"/read_misses"] = float64(res.ReadMisses)
		win.sim[r.name+"/write_misses"] = float64(res.WriteMisses)
		win.counts["txns"] += float64(res.Invals)
		win.counts["grouping.calls.d4"] += float64(res.Invals)
		win.counts["read_misses"] += float64(res.ReadMisses)
		win.counts["write_misses"] += float64(res.WriteMisses)
		win.counts["read_hits"] += float64(r.reads - int64(res.ReadMisses))
	}
	return win
}

//simcheck:allow-file determinism,nogoroutine -- one workload run: wall-clock windows, getrusage, and the attribution of host time to layers

package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times an untraced run sets the workload up; setup_s
// is the median. The contract this benchmark is accepted under asks for it
// ("set up several times in a run and report the median"), and it pays for
// its two extra set-ups (1-3 s a run): over twenty runs of each workload the
// first set-up alone spreads 4.8-8.7% of its median, the median of three
// 3.3-5.1% (README, "run-to-run spread").
const setupReps = 3

// measured is one timed window.
type measured struct {
	win   *window
	wall  time.Duration
	cpu   time.Duration
	gc    time.Duration
	spans []span
	// peakRSS is the process high-water mark read right after the window.
	peakRSS float64
}

// runResult is everything one single-workload run produced.
type runResult struct {
	metrics   metricSet // end-to-end (untraced) or per-layer (traced)
	attempted int64
	failed    int64
	ops       int64
	drift     int
	pinned    bool
	why       []string // what drifted or broke, first few
	latN      int
	sim       map[string]float64
	spans     []span // of the traced window
}

// timeWindow runs one window with the collector settled first, so each
// window starts from the same heap state.
func timeWindow(p prepared, tr *tracer) measured {
	runtime.GC()
	u0 := readUsage()
	t0 := time.Now()
	win := p.run(tr)
	wall := time.Since(t0)
	u1 := readUsage()
	m := measured{win: win, wall: wall, cpu: u1.cpu - u0.cpu, gc: u1.gcPause - u0.gcPause}
	if tr != nil {
		m.spans = tr.recorded()
	}
	return m
}

// runPlain measures one workload with tracing off: reps set-ups (the median
// is setup_s), then one window. It returns the window too, which the traced
// pass compares itself against.
func runPlain(def workloadDef, c config, reps int, pins pinSet, log io.Writer) (*runResult, measured, error) {
	res := &runResult{}
	var setups []float64
	var p prepared
	for i := 0; i < reps; i++ {
		if p != nil {
			p.close()
		}
		t0 := time.Now()
		var err error
		if p, err = def.setup(c, false); err != nil {
			return nil, measured{}, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	plain := timeWindow(p, nil)
	p.close()
	plain.peakRSS = readUsage().maxRSS

	res.attempted, res.failed, res.ops = plain.win.attempted, plain.win.failed, plain.win.ops
	res.sim = plain.win.sim
	res.latN = len(plain.win.lat)
	res.drift, res.pinned, res.why = pins.drift(def.name, c, plain.win)
	lat := sortedCopy(plain.win.lat)
	res.metrics = metricSet{
		"setup_s":    median(setups),
		"ops_per_s":  float64(plain.win.ops) / plain.wall.Seconds(),
		"wall_s":     plain.wall.Seconds(),
		"lat_p50_ms": ms(percentile(lat, 0.50)),
	}
	fmt.Fprintf(log, "  set-ups (s): %.4f\n", setups)
	return res, plain, nil
}

// runTraced adds the traced pass to an untraced one: a fresh set-up (a
// cold-start workload must start cold again), one window with span
// recording on, the trace file, and the per-layer metrics assembled from the
// spans, the window's exact counts and the layer probes.
func runTraced(def workloadDef, c config, res *runResult, plain measured, pr *probes, log io.Writer) error {
	p, err := def.setup(c, true)
	if err != nil {
		return fmt.Errorf("%s traced set-up: %w", def.name, err)
	}
	// A unit of work (request, point, run) records at most a handful of
	// spans; the untraced window says how many units there are.
	tr := newTracer(6*len(plain.win.lat) + 4096)
	traced := timeWindow(p, tr)
	p.close()
	if d := tr.dropped.Load(); d > 0 {
		return fmt.Errorf("%s: tracer dropped %d spans (pre-sized too small)", def.name, d)
	}
	// A traced window must see what the untraced one saw: tracing that
	// changes a simulated statistic is a broken tracer.
	same := pinSet{def.name: {Seed: c.seed, Scale: c.scale, Stats: plain.win.sim}}
	if n, _, why := same.drift(def.name, c, traced.win); n > 0 {
		res.drift += n
		res.why = append(res.why, why...)
	}
	res.failed += traced.win.failed
	res.attempted += traced.win.attempted
	res.spans = traced.spans

	tracePath := filepath.Join(c.dir, "out", "trace-"+def.name+".json")
	if err := writeChromeTrace(tracePath, traced.spans, traced.win.root); err != nil {
		return fmt.Errorf("%s: write trace: %w", def.name, err)
	}
	fmt.Fprintf(log, "  trace: %s (%d spans)\n", tracePath, len(traced.spans))
	res.metrics = layerMetrics(plain, traced, pr, sortedCopy(plain.win.lat), def)
	return nil
}

// layerMetrics assembles every per-layer metric of a traced run.
func layerMetrics(plain, traced measured, pr *probes, lat []time.Duration, def workloadDef) metricSet {
	m := metricSet{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for name, v := range pr.M {
		m[name] = v
	}
	counts := traced.win.counts
	stats := analyze(traced.spans)
	cpu := plain.cpu.Seconds()

	// Exact counts.
	m["sim.events"] = counts["events"]
	if txns := counts["txns"]; txns > 0 {
		m["sim.events_per_txn"] = counts["events"] / txns
	}
	m["network.flit_hops"] = counts["flit_hops"]
	if worms := counts["worms"]; worms > 0 {
		m["network.us_per_worm"] = cpu * 1e6 / worms
	}
	m["grouping.calls"] = counts["grouping.calls.d4"] + counts["grouping.calls.d16"] + counts["grouping.calls.d64"]
	m["coherence.misses"] = counts["read_misses"] + counts["write_misses"]
	m["coherence.invals"] = counts["txns"]

	// Sweep worker utilisation, from the untraced window's CPU and the
	// traced window's per-op spans.
	m["sweep.parallel_efficiency"] = cpu / (parallel * plain.wall.Seconds())
	m["sweep.tail_idle_share"] = tailIdleShare(traced.spans, traced.win.root)

	// Service spans.
	req, eng := stats.get("bench.request"), stats.get("service.engine")
	gets, puts := stats.get("service.store.get"), stats.get("service.store.put")
	m["service.engine_runs"] = float64(eng.count)
	if eng.count > 0 {
		m["service.engine_ms_per_run"] = ms(eng.total) / float64(eng.count)
	}
	m["service.store_gets"] = float64(gets.count)
	m["service.store_puts"] = float64(puts.count)
	if gets.count > 0 {
		m["service.store_get_us"] = float64(gets.total) / float64(gets.count) / 1e3
		m["service.memory_hit_ratio"] = 1 - counts["disk_gets"]/float64(gets.count)
	}
	if puts.count > 0 {
		m["service.store_put_us"] = float64(puts.total) / float64(puts.count) / 1e3
	}
	if req.count > 0 {
		m["service.self_us_per_req"] = float64(req.self) / float64(req.count) / 1e3
	}
	m["service.hit_ratio"] = counts["hit_ratio"]
	m["service.coalesced"] = counts["coalesced"]
	m["service.duplicate_runs"] = counts["duplicate_runs"]
	m["service.shed"] = counts["shed"]

	attribute(m, def, plain, counts, pr, stats)

	m["bench.peak_rss_mb"] = plain.peakRSS
	m["bench.cpu_s"] = cpu
	m["bench.gc_pause_ms"] = ms(plain.gc)
	m["bench.lat_p90_ms"] = ms(percentile(lat, 0.90))
	m["bench.lat_p99_ms"] = ms(percentile(lat, 0.99))
	m["bench.lat_max_ms"] = ms(lat[len(lat)-1])
	m["bench.trace_overhead_share"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	return m
}

// attribute fills share.* and the residual.
//
// Simulator workloads: each layer's share is its per-op probe cost times the
// exact op count the window reported, over the window's CPU seconds. The
// costs are self costs (the engine's and the fabric's time is taken out of
// the protocol ops above them), so the shares add, and what no layer
// explains is the residual.
//
// Serving workloads: the denominator is client-seconds, the sum of the
// bench.request spans. engine is the time service.engine spans cover;
// service is the store spans plus the part of the requests' self time that
// the probe-measured cost of a cache-hit request explains (transport +
// handler, per request kind). The residual is request time inside the
// daemon that no span and no probe accounts for: batch-window waits, the
// run queue, the journal.
func attribute(m metricSet, def workloadDef, plain measured, counts map[string]float64, pr *probes, stats spanSummary) {
	req, eng := stats.get("bench.request"), stats.get("service.engine")
	gets, puts := stats.get("service.store.get"), stats.get("service.store.put")
	share := map[string]float64{}
	if req.count == 0 {
		cpuNs := plain.cpu.Seconds() * 1e9
		events, hops := counts["events"], counts["flit_hops"]
		if def.name == "net-traffic" {
			hops = counts["flit_hops_est"]
			events = hops * pr.EventsPerFlitHop
		}
		share["sim"] = events * pr.NsPerEvent
		share["network"] = hops * pr.NetSelfNsPerFlitHop
		share["grouping"] = counts["grouping.calls.d4"]*pr.M["grouping.ns_per_call.d4"] +
			counts["grouping.calls.d16"]*pr.M["grouping.ns_per_call.d16"] +
			counts["grouping.calls.d64"]*pr.M["grouping.ns_per_call.d64"]
		// Machine construction: app-replay spans it directly; inval-sweep
		// builds one machine per point inside RunPointDirect, so there it is
		// the probe cost times the point count per mesh size.
		share["coherence"] = float64(stats.get("coherence.NewMachine").total) +
			counts["machines.k16"]*pr.M["coherence.us_per_new_machine.k16"]*1e3 +
			counts["machines.k32"]*pr.M["coherence.us_per_new_machine.k32"]*1e3 +
			counts["read_hits"]*pr.ReadHitSelfNs +
			counts["read_misses"]*pr.ReadMissSelfUs*1e3 +
			counts["write_misses"]*pr.WriteMissSelfUs*1e3
		share["sweep"] = counts["points"] * pr.M["sweep.us_per_point_overhead"] * 1e3
		for k := range share {
			share[k] /= cpuNs
		}
	} else {
		total := float64(req.total)
		transport := pr.M["service.http_hit_us"] - pr.M["service.handler_hit_us"]
		if transport < 0 {
			transport = 0
		}
		explained := 1e3 * (counts["jobs"]*(transport+pr.M["service.handler_hit_us"]) +
			counts["results"]*(transport+pr.M["service.memstore_get_ns"]/1e3) +
			counts["stats"]*(transport+pr.M["service.stats_us"]))
		if self := float64(req.self); explained > self {
			explained = self
		}
		// Store spans nest inside engine-less request time only: a Put runs
		// on the engine worker after the engine span has ended.
		share["engine"] = float64(eng.total) / total
		share["service"] = (float64(gets.total+puts.total) + explained) / total
	}
	residual := 1.0
	for _, layer := range []string{"sim", "network", "grouping", "coherence", "sweep", "service", "engine"} {
		m["share."+layer] = share[layer]
		residual -= share[layer]
	}
	m["bench.attrib_residual_share"] = residual
}

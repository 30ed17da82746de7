package workload

import (
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TrafficConfig configures an open-loop uniform-random network experiment:
// every node injects unicast worms to uniformly random destinations with
// geometric inter-arrival times, the standard methodology for
// latency-versus-offered-load curves in the wormhole routing literature
// [27, 33].
type TrafficConfig struct {
	// K is the mesh dimension.
	K int
	// Rate is the per-node injection rate in worms per 1000 cycles.
	Rate float64
	// Duration is the injection window in cycles (the network then drains).
	Duration sim.Time
	// PayloadFlits sizes each worm's payload (default 4 = a control
	// message).
	PayloadFlits int
	// VirtualChannels per link (default 1).
	VirtualChannels int
	// Seed drives the arrival and destination streams (default 1).
	Seed uint64
}

// TrafficResult reports the experiment's measurements.
type TrafficResult struct {
	// Injected and Delivered count worms. They always match: the run
	// drains the fabric, and RunTraffic panics if a worm is undelivered.
	Injected, Delivered uint64
	// Latency summarizes per-worm network latency (inject to consume).
	Latency sim.Summary
	// AvgLinkUtilization is the mean busy fraction over all links.
	AvgLinkUtilization float64
	// DrainTime is how long past the injection window the network needed
	// to deliver everything — a saturation indicator.
	DrainTime sim.Time
	// EngineEvents is the engine's total fired-event count.
	EngineEvents uint64
}

// RunTraffic executes the experiment and returns its measurements.
func RunTraffic(cfg TrafficConfig) TrafficResult { return RunTrafficTraced(cfg, nil) }

// RunTrafficTraced is RunTraffic with rec (nil for none) recording the
// network's worm-lifecycle events; results are identical to an untraced run.
func RunTrafficTraced(cfg TrafficConfig, rec *trace.Recorder) TrafficResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PayloadFlits == 0 {
		cfg.PayloadFlits = 4
	}
	if cfg.Duration == 0 {
		cfg.Duration = 20000
	}
	if cfg.Rate <= 0 {
		panic("workload: traffic needs a positive rate")
	}
	engine := sim.NewEngine()
	mesh := topology.NewSquareMesh(cfg.K)
	ncfg := network.DefaultConfig()
	if cfg.VirtualChannels > 0 {
		ncfg.VirtualChannels = cfg.VirtualChannels
	}
	net := network.New(engine, mesh, ncfg)
	net.Rec = rec

	var res TrafficResult
	net.OnDeliver = func(d network.Delivery) {
		if d.Final {
			res.Delivered++
			res.Latency.AddTime(engine.Now() - d.Worm.InjectedAt())
		}
	}
	rng := sim.NewRNG(cfg.Seed)
	// Geometric inter-arrival with mean 1000/Rate cycles.
	nextGap := func() sim.Time {
		mean := 1000.0 / cfg.Rate
		// Inverse-CDF geometric approximation of a Poisson process.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		gap := -mean * ln(u)
		if gap < 1 {
			gap = 1
		}
		return sim.Time(gap)
	}
	// inject is every source's injection event (i is the source): send one
	// pooled worm, then schedule the source's next injection while the
	// window is open.
	var inject func(_ any, i int32)
	schedule := func(src topology.NodeID, at sim.Time) {
		if at <= cfg.Duration {
			engine.AtCall(at, inject, nil, int32(src))
		}
	}
	//simcheck:noalloc
	inject = func(_ any, i int32) {
		src := topology.NodeID(i)
		dst := topology.NodeID(rng.Intn(mesh.Nodes()))
		if dst == src {
			dst = topology.NodeID((int(dst) + 1) % mesh.Nodes())
		}
		w := net.NewWorm()
		path := routing.ECube.UnicastPathInto(w.TakePathBuf(), mesh, src, dst)
		dests := w.TakeDestBuf(len(path))
		dests[len(path)-1] = true
		w.Kind = network.Unicast
		w.VN = network.Request
		w.Path = path
		w.Dest = dests
		w.HeaderFlits = ncfg.HeaderFlits(1)
		w.PayloadFlits = cfg.PayloadFlits
		net.Inject(w)
		res.Injected++
		schedule(src, engine.Now()+nextGap())
	}
	for n := 0; n < mesh.Nodes(); n++ {
		schedule(topology.NodeID(n), nextGap())
	}
	engine.Run()
	if net.Outstanding() != 0 {
		panic(fmt.Sprintf("workload: %d worms undelivered after drain", net.Outstanding()))
	}
	res.AvgLinkUtilization = net.AvgLinkUtilization()
	if now := engine.Now(); now > cfg.Duration {
		res.DrainTime = now - cfg.Duration
	}
	res.EngineEvents = engine.Fired()
	return res
}

// ln aliases math.Log for the inter-arrival draw.
func ln(x float64) float64 { return math.Log(x) }

package sweep

import (
	"fmt"
	"slices"

	"repro/internal/apps"
	"repro/internal/coherence"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// HotSpot makes a point one concurrent-write burst (workload.RunHotSpot) on
// the point's K, Scheme, D, Seed and Tune.
type HotSpot struct {
	Writers        int      `json:"writers,omitempty"`
	OverlapSharers bool     `json:"overlap_sharers,omitempty"`
	DistinctHomes  bool     `json:"distinct_homes,omitempty"`
	BusyJitter     sim.Time `json:"busy_jitter,omitempty"`
	// Occupancy records the burst and folds the recording into
	// Measures.Occupancy.
	Occupancy bool `json:"occupancy,omitempty"`
}

// AppMeasures is an application replay's outcome, with the trace's static
// reference counts so a table of them never regenerates the trace.
type AppMeasures struct {
	Time       sim.Time `json:"time"`
	Invals     int      `json:"invals"`
	AvgSharers float64  `json:"avg_sharers"`
	MaxSharers int      `json:"max_sharers"`
	Reads      uint64   `json:"reads"`
	Writes     uint64   `json:"writes"`
	// Barriers counts barrier episodes per processor.
	Barriers uint64 `json:"barriers"`
	// Sharers[n] counts the invalidation transactions with n sharers, so
	// its sum is Invals.
	Sharers []int `json:"sharers,omitempty"`
}

// OccupancyMeasures is a burst's trace-derived occupancy profile: the busy
// time and longest task of the mesh-center home's controller, and the mean
// and peak mesh-link utilization over the burst's makespan, with the peak
// link's name ("" when the burst used no mesh link).
type OccupancyMeasures struct {
	HomeBusy     sim.Time `json:"home_busy,omitempty"`
	HomeMaxTask  sim.Time `json:"home_max_task,omitempty"`
	MeanLinkUtil float64  `json:"mean_link_util,omitempty"`
	PeakLinkUtil float64  `json:"peak_link_util,omitempty"`
	PeakLink     string   `json:"peak_link,omitempty"`
}

// Check refuses a point no runner can honour:
//   - no trials;
//   - a mesh side below 2;
//   - a scheme grouping.AllSchemes does not list;
//   - more than one workload;
//   - a burst, replay or traffic run that is not one trial;
//   - a negative offered load;
//   - a burst, replay or traffic run with a field its runner ignores;
//   - an unknown application;
//   - a replay whose programs do not fit the mesh;
//   - sharers that do not fit the mesh;
//   - a burst whose writers and homes cannot all be placed;
//   - a home off the mesh;
//   - a negative Tune field.
func (p Point) Check() error {
	kinds := 0
	for _, set := range []bool{p.Home != nil, p.HotSpot != nil, p.App != "", p.OfferedLoad != 0} {
		if set {
			kinds++
		}
	}
	v := p.Tune
	switch {
	case p.Trials < 1:
		return fmt.Errorf("has Trials %d (must be >= 1)", p.Trials)
	case p.K < 2:
		return fmt.Errorf("has K %d (a mesh side must be >= 2)", p.K)
	case !slices.Contains(grouping.AllSchemes, p.Scheme):
		return fmt.Errorf("has unknown Scheme %v (want one of %v)", p.Scheme, grouping.AllSchemes)
	case kinds > 1:
		return fmt.Errorf("sets %d of Home, HotSpot, App and OfferedLoad (at most one)", kinds)
	case (p.HotSpot != nil || p.App != "" || p.OfferedLoad != 0) && p.Trials != 1:
		return fmt.Errorf("is a burst, replay or traffic run with Trials %d (must be 1)", p.Trials)
	case p.OfferedLoad < 0:
		return fmt.Errorf("has OfferedLoad %g (must be >= 0)", p.OfferedLoad)
	case p.OfferedLoad != 0 && (p.D != 0 || p.Pattern != 0 || p.Scheme != grouping.UIUA || p.ChaosSeed != 0 ||
		p.Faults != nil || v != nil && *v != (coherence.Variant{})):
		return fmt.Errorf("is a traffic run with D, Pattern, a Scheme other than UI-UA, chaos, faults or a Tune field, which a traffic run ignores")
	case p.HotSpot != nil && (p.ChaosSeed != 0 || p.Faults != nil || p.Pattern != 0):
		return fmt.Errorf("is a burst with chaos, faults or a Pattern, which a burst ignores")
	case p.App != "" && (p.D != 0 || p.Pattern != 0 || p.Seed != 0 || p.ChaosSeed != 0 || p.Faults != nil):
		return fmt.Errorf("is a replay with D, Pattern, Seed, chaos or faults, which a replay ignores")
	case p.App != "" && !apps.Known(p.App):
		return fmt.Errorf("names an unknown application %q", p.App)
	case p.App != "" && p.K*p.K < apps.PublishedProcs:
		return fmt.Errorf("replays %d programs on a %dx%d mesh (too few nodes)", apps.PublishedProcs, p.K, p.K)
	case p.App == "" && p.OfferedLoad == 0 && (p.D < 1 || p.D > p.K*p.K-2):
		return fmt.Errorf("has D %d out of range [1,%d] for a %dx%d mesh", p.D, p.K*p.K-2, p.K, p.K)
	case p.HotSpot != nil && (p.HotSpot.Writers < 1 || p.HotSpot.Writers+p.D+1 > p.K*p.K):
		// Each writer is a distinct node that is neither its block's home
		// nor one of its sharers.
		return fmt.Errorf("is a burst of %d writers with D %d, which a %dx%d mesh does not fit (1 to %d writers)",
			p.HotSpot.Writers, p.D, p.K, p.K, p.K*p.K-p.D-1)
	case p.Home != nil && (*p.Home < 0 || int(*p.Home) >= p.K*p.K):
		return fmt.Errorf("has Home %d off the %dx%d mesh", *p.Home, p.K, p.K)
	case v != nil && min(v.IAckBuffers, v.ConsumptionChannels) < 0:
		return fmt.Errorf("has a negative Tune field")
	}
	return nil
}

// runHotSpot runs a HotSpot point's burst. An Occupancy burst folds rec, or
// a ring of its own when rec is nil. A ring that wrapped lost the burst's
// first events, so the burst then runs once more on a ring that holds them
// all: it is deterministic, and the rerun records the same events.
func runHotSpot(p Point, rec *trace.Recorder) Measures {
	h := p.HotSpot
	if h.Occupancy && rec == nil {
		rec = trace.NewRecorder(1 << 16)
	}
	cfg := workload.HotSpotConfig{
		K: p.K, Scheme: p.Scheme, D: p.D, Writers: h.Writers,
		OverlapSharers: h.OverlapSharers, DistinctHomes: h.DistinctHomes,
		BusyJitter: h.BusyJitter, Seed: p.Seed, Tune: p.Tune, Recorder: rec,
	}
	res := workload.RunHotSpot(cfg)
	if h.Occupancy && rec.Dropped() > 0 {
		rec = trace.NewRecorder(rec.Len() + int(rec.Dropped()))
		cfg.Recorder = rec
		workload.RunHotSpot(cfg)
	}
	m := Measures{Latency: res.Latency, Makespan: res.Makespan, GatherWaits: res.GatherWaits, Completed: 1}
	if h.Occupancy {
		home := topology.NewSquareMesh(p.K).ID(topology.Coord{X: p.K / 2, Y: p.K / 2})
		m.Occupancy = occupancyOf(trace.Occupancy(rec.Events()), home, res.Makespan)
	}
	return m
}

// occupancyOf folds a burst's profile at home over the burst's makespan: the
// recording starts at the burst, so the window is the burst itself, not the
// profile horizon (which counts absolute cycles since machine construction).
func occupancyOf(prof *trace.Profile, home topology.NodeID, makespan sim.Time) *OccupancyMeasures {
	o := &OccupancyMeasures{}
	for _, n := range prof.Nodes {
		if n.Node == int32(home) {
			o.HomeBusy, o.HomeMaxTask = n.Busy, n.MaxTask
		}
	}
	window := float64(makespan)
	links := prof.MeshLinks()
	var linkSum float64
	for _, l := range links {
		linkSum += float64(l.Busy)
	}
	if len(links) > 0 && window > 0 {
		o.MeanLinkUtil = linkSum / float64(len(links)) / window
	}
	if peak, ok := prof.HottestLink(); ok && window > 0 {
		o.PeakLink = fmt.Sprintf("%d->%d vn%d", peak.From, peak.To, peak.VN)
		o.PeakLinkUtil = float64(peak.Busy) / window
	}
	return o
}

// runApp replays an App point's application on a K x K machine.
func runApp(p Point, rec *trace.Recorder) Measures {
	w, err := apps.ByName(p.App)
	if err != nil {
		panic(err)
	}
	params := coherence.DefaultParams(p.K, p.Scheme)
	p.Tune.Apply(&params)
	m := coherence.NewMachine(params)
	m.AttachTrace(rec)
	res := apps.Run(m, w)
	st := w.Stats()
	var sharers []int
	if res.Invals > 0 {
		sharers = make([]int, res.MaxSharers+1)
		for _, rec := range m.Metrics.Invals {
			sharers[rec.Sharers]++
		}
	}
	return Measures{Completed: 1, App: &AppMeasures{
		Time: res.Time, Invals: res.Invals, AvgSharers: res.AvgSharers, MaxSharers: res.MaxSharers,
		Reads: st.Reads, Writes: st.Writes,
		Barriers: st.Barriers / uint64(len(w.Programs)), Sharers: sharers,
	}}
}

// runTraffic runs an OfferedLoad point's uniform traffic.
func runTraffic(p Point, rec *trace.Recorder) Measures {
	cfg := workload.TrafficConfig{K: p.K, Rate: p.OfferedLoad, Seed: p.Seed}
	res := workload.RunTrafficTraced(cfg, rec)
	return Measures{Completed: 1, TrafficLatency: res.Latency.Mean(), LinkUtil: res.AvgLinkUtilization}
}

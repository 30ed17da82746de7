// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md section 5 for the experiment index and
// EXPERIMENTS.md for recorded results). Each figure runs the relevant
// workloads on the cycle-level simulator and renders a report table. A
// figure whose cells are sweep points (invalidation transactions, hot-spot
// bursts, application replays, traffic runs) is a method of Lab, the value
// that says how it runs — context, workers, timeout, progress and point
// runner — so no state is shared between callers: service.Experiment builds
// one per experiment over its own service, in process and behind the
// daemon's experiment endpoint alike. Lab.Run is the one entry point by name
// (RunnerOrder lists the names).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/apps"
	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

// DefaultK, DefaultD and DefaultTrials are the mesh side, sharer count and
// trial count of an experiment whose caller names none: dsmsimctl
// experiment's flag defaults and service.Experiment both read them, so an
// in-process run and a daemon render the same tables.
const (
	DefaultK      = 16
	DefaultD      = 16
	DefaultTrials = 10
)

// Lab runs experiments: Ctx cancels its sweeps (nil never does) and Sweep
// sets their workers, per-point timeout, progress and point runner —
// service.Experiment's resolve through its service and result store. The
// zero Lab runs on every core on the bare engine. A cancelled
// sweep stops its workers at the next trial boundary and the figure renders
// the points that finished (a runner over a result store has stored them,
// so a rerun resumes there). Every figure is byte-identical at any worker
// count: each point runs on an isolated machine with its own seed, and
// results merge in point order (see internal/sweep).
type Lab struct {
	Ctx   context.Context
	Sweep sweep.Options
}

func (l Lab) ctx() context.Context {
	if l.Ctx == nil {
		return context.Background()
	}
	return l.Ctx
}

// runSweep numbers points in order and executes them under the lab's sweep
// options. Experiment grids are statically well-formed, so any error other
// than interruption is surfaced as a panic rather than threaded through
// every figure signature (a point runner reports its own failures the same
// way); Run turns it back into an error. Interruption degrades to a partial table with a stderr
// warning; a partial point that neither an interruption nor a point timeout
// explains means the runner failed, and panics like an error.
func (l Lab) runSweep(points []sweep.Point) []sweep.Result {
	for i := range points {
		points[i].Index = i
	}
	ctx := l.ctx()
	sum, err := sweep.Run(ctx, points, l.Sweep)
	if err != nil && !errors.Is(err, ctx.Err()) {
		panic(fmt.Errorf("experiments: sweep failed: %w", err))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: interrupted: %d/%d points completed; the table covers only those (zeros elsewhere)\n",
			sum.Completed, len(sum.Results))
	}
	if sum.Partial > 0 {
		switch {
		case l.Sweep.PointTimeout > 0:
			// A table built from timed-out points averages only the
			// completed trials (or prints 0.0 when none finished) — never let
			// that pass for a full measurement silently.
			fmt.Fprintf(os.Stderr, "sweep: warning: %d/%d points hit the point timeout; their table cells cover only completed trials (0.0 if none)\n",
				sum.Partial, len(sum.Results))
		case err == nil:
			panic(fmt.Sprintf("experiments: the point runner returned no result for %d/%d points with no timeout set and no interruption", sum.Partial, len(sum.Results)))
		}
	}
	if sum.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "sweep: warning: %d points quarantined (timed out twice); they are not stored, so a rerun retries them\n",
			sum.Quarantined)
	}
	return sum.Results
}

// schemeCols is a header: the leading columns, then for each scheme one
// column per suffix (the scheme's name alone when no suffix is given).
func schemeCols(lead []string, schemes []grouping.Scheme, suffixes ...string) []string {
	if len(suffixes) == 0 {
		suffixes = []string{""}
	}
	for _, s := range schemes {
		for _, sfx := range suffixes {
			lead = append(lead, s.String()+sfx)
		}
	}
	return lead
}

// gridRows renders row-major results as one row per label: the label, then
// the cells of each of that row's len(results)/len(labels) results.
func gridRows[L any](t *report.Table, labels []L, results []sweep.Result, cells func(sweep.Measures) []any) {
	n := len(results) / len(labels)
	for i, label := range labels {
		row := []any{label}
		for _, r := range results[i*n : (i+1)*n] {
			row = append(row, cells(r.Measures)...)
		}
		t.Row(row...)
	}
}

// burst is a hot-spot burst point: one trial, placement seed 1.
func burst(k int, s grouping.Scheme, d int, hs sweep.HotSpot, tune *coherence.Variant) sweep.Point {
	return sweep.Point{K: k, Scheme: s, D: d, Trials: 1, Seed: 1, HotSpot: &hs, Tune: tune}
}

// runApps replays each named application on each machine variant under each
// scheme on the paper's 4x4 machine and returns each application's outcomes
// variant-major (zero for a replay an interrupt skipped).
func (l Lab) runApps(names []string, tunes []coherence.Variant, schemes []grouping.Scheme) [][]sweep.AppMeasures {
	var pts []sweep.Point
	for _, name := range names {
		for _, tune := range tunes {
			for _, s := range schemes {
				pts = append(pts, appPoint(name, s, tune))
			}
		}
	}
	n := len(tunes) * len(schemes)
	out := make([][]sweep.AppMeasures, len(names))
	for i, r := range l.runSweep(pts) {
		var a sweep.AppMeasures
		if r.Measures.App != nil {
			a = *r.Measures.App
		}
		out[i/n] = append(out[i/n], a)
	}
	return out
}

// appPoint is the replay of the named application under s on the paper's
// 4x4 machine varied by tune.
func appPoint(name string, s grouping.Scheme, tune coherence.Variant) sweep.Point {
	return sweep.Point{K: 4, Scheme: s, Trials: 1, App: name, Tune: &tune}
}

// mustBeFresh fails the figure with an error naming the stored replay p when
// stale, stored before a measure the figure reads (lacks says which).
func mustBeFresh(p sweep.Point, stale bool, lacks string) {
	if stale {
		panic(fmt.Errorf("experiments: the stored %s replay %s %s; delete it to rerun the replay", p.App, p.Fingerprint(), lacks))
	}
}

// normalizedRows renders one row per application: each replay's execution
// time over the first's (the UI-UA baseline), then the baseline's cycles.
func normalizedRows(t *report.Table, names []string, results [][]sweep.AppMeasures) {
	for i, cells := range results {
		row := []any{names[i]}
		for _, a := range cells {
			row = append(row, report.Float3(ratio(a.Time, cells[0].Time)))
		}
		t.Row(append(row, uint64(cells[0].Time))...)
	}
}

// ratio is a/b, or 0 when b is 0 (a replay an interrupt skipped).
func ratio(a, b sim.Time) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// CompareSchemes is the scheme set used by the figure sweeps, in
// presentation order.
var CompareSchemes = grouping.AllSchemes

// SharerCounts is the d-axis of the sharer sweeps (E4-E6).
var SharerCounts = []int{1, 2, 4, 8, 16, 24, 32}

// fitMesh returns the sharer counts of ds a k x k mesh can hold: at most
// k*k-2, since neither the home nor the writer is a sharer. Every d-axis
// of the sharer sweeps goes through it, so a small mesh renders the rows
// that fit instead of failing at the first that does not.
func fitMesh(k int, ds []int) []int {
	var out []int
	for _, d := range ds {
		if d <= k*k-2 {
			out = append(out, d)
		}
	}
	return out
}

// SweepPoint is one (scheme, d) cell of the sharer sweep.
type SweepPoint struct {
	Scheme grouping.Scheme
	D      int
	Res    sweep.Measures
}

// SharerSweep runs the d-sweep for every scheme on a k x k mesh and
// returns all points (E4, E5 and E6 render different columns of it). The
// per-point seed keeps the historical per-d value (d + 7) so the recorded
// EXPERIMENTS.md tables regenerate unchanged; ad-hoc grids built through
// sweep.Grid derive seeds from a base seed via splitmix instead.
func (l Lab) SharerSweep(k int, ds []int, schemes []grouping.Scheme, trials int) []SweepPoint {
	var pts []sweep.Point
	for _, s := range schemes {
		for _, d := range ds {
			pts = append(pts, sweep.Point{K: k, Scheme: s, D: d, Trials: trials, Seed: uint64(d) + 7})
		}
	}
	var out []SweepPoint
	for _, r := range l.runSweep(pts) {
		out = append(out, SweepPoint{Scheme: r.Point.Scheme, D: r.Point.D, Res: r.Measures})
	}
	return out
}

// sweepTable renders one measure of a sharer sweep as d-rows x
// scheme-columns.
func sweepTable(title string, points []SweepPoint, ds []int,
	schemes []grouping.Scheme, measure func(sweep.Measures) float64) *report.Table {
	t := report.NewTable(title, schemeCols([]string{"d"}, schemes)...)
	byKey := map[[2]int]sweep.Measures{}
	for _, p := range points {
		byKey[[2]int{int(p.Scheme), p.D}] = p.Res
	}
	for _, d := range ds {
		row := []any{d}
		for _, s := range schemes {
			row = append(row, measure(byKey[[2]int{int(s), d}]))
		}
		t.Row(row...)
	}
	return t
}

// sharerFigure renders one measure of the SharerCounts sweep over every
// CompareSchemes scheme (E4-E6).
func (l Lab) sharerFigure(title string, k, trials int, measure func(sweep.Measures) float64) *report.Table {
	ds := fitMesh(k, SharerCounts)
	return sweepTable(title, l.SharerSweep(k, ds, CompareSchemes, trials), ds, CompareSchemes, measure)
}

// FigLatencyVsSharers renders E4: mean invalidation latency versus d.
func (l Lab) FigLatencyVsSharers(k, trials int) *report.Table {
	return l.sharerFigure(
		fmt.Sprintf("E4: invalidation latency (cycles) vs sharers, %dx%d mesh, random placement", k, k),
		k, trials, func(r sweep.Measures) float64 { return r.Latency.Mean() })
}

// FigOccupancyVsSharers renders E5: home messages (occupancy proxy) vs d.
func (l Lab) FigOccupancyVsSharers(k, trials int) *report.Table {
	return l.sharerFigure(
		fmt.Sprintf("E5: home-node messages per transaction vs sharers, %dx%d mesh", k, k),
		k, trials, func(r sweep.Measures) float64 { return r.HomeMsgs })
}

// FigTrafficVsSharers renders E6: network flit-hops per transaction vs d.
func (l Lab) FigTrafficVsSharers(k, trials int) *report.Table {
	return l.sharerFigure(
		fmt.Sprintf("E6: network flit-hops per transaction vs sharers, %dx%d mesh", k, k),
		k, trials, func(r sweep.Measures) float64 { return r.FlitHops })
}

// MeshSizes is the k-axis of E7.
var MeshSizes = []int{4, 8, 16, 32}

// FigLatencyVsMeshSize renders E7: latency at fixed d as the mesh grows.
func (l Lab) FigLatencyVsMeshSize(d, trials int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E7: invalidation latency (cycles) vs mesh size, d=%d, random placement", d),
		schemeCols([]string{"k"}, CompareSchemes)...)
	var pts []sweep.Point
	for _, k := range MeshSizes {
		for _, s := range CompareSchemes {
			pts = append(pts, sweep.Point{K: k, Scheme: s, D: min(d, k*k-2), Trials: trials, Seed: uint64(k)})
		}
	}
	gridRows(t, MeshSizes, l.runSweep(pts), func(m sweep.Measures) []any { return []any{m.Latency.Mean()} })
	return t
}

// FigIAckBuffers renders E8: concurrent MI-MA transactions on one widely
// shared sharer set under varying i-ack buffer depth, blocking versus VCT
// deferred delivery, with idle and heterogeneously loaded sharer
// controllers. The buffer axis shows the paper's "2-4 buffers suffice";
// the load axis shows when VCT deferred delivery pays off: a gather worm
// only catches an unposted ack when some sharers post late relative to the
// group's launch node.
func (l Lab) FigIAckBuffers(k, d, writers int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E8: %d concurrent MI-MA-ec invalidations, %dx%d mesh, d=%d: i-ack buffer sensitivity", writers, k, k, d),
		"buffers", "mode", "sharer load", "mean latency", "makespan", "gather waits")
	var pts []sweep.Point
	for _, bufs := range []int{1, 2, 4, 8} {
		for _, vct := range []bool{false, true} {
			for _, jitter := range []sim.Time{0, 500} {
				pts = append(pts, burst(k, grouping.MIMAEC, d,
					sweep.HotSpot{Writers: writers, OverlapSharers: true, DistinctHomes: true, BusyJitter: jitter},
					&coherence.Variant{IAckBuffers: bufs, VCTDeferred: vct}))
			}
		}
	}
	for _, r := range l.runSweep(pts) {
		tune, jitter := r.Point.Tune, r.Point.HotSpot.BusyJitter
		mode := "blocking"
		if tune.VCTDeferred {
			mode = "VCT-deferred"
		}
		load := "idle"
		if jitter > 0 {
			load = fmt.Sprintf("jitter<%d", jitter)
		}
		m := r.Measures
		t.Row(tune.IAckBuffers, mode, load, m.Latency.Mean(), uint64(m.Makespan), m.GatherWaits)
	}
	return t
}

// HotSpotWriters is the concurrency axis of E10.
var HotSpotWriters = []int{1, 2, 4, 8}

// FigHotSpot renders E10: concurrent invalidation bursts at one home.
func (l Lab) FigHotSpot(k, d int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E10: makespan (cycles) of concurrent invalidation bursts, %dx%d mesh, d=%d", k, k, d),
		schemeCols([]string{"writers"}, CompareSchemes)...)
	var pts []sweep.Point
	for _, w := range HotSpotWriters {
		for _, s := range CompareSchemes {
			pts = append(pts, burst(k, s, d, sweep.HotSpot{Writers: w}, nil))
		}
	}
	gridRows(t, HotSpotWriters, l.runSweep(pts), makespan)
	return t
}

// makespan is a burst's table cell.
func makespan(m sweep.Measures) []any { return []any{uint64(m.Makespan)} }

// FigHomePlacement renders the per-home-node breakdown of invalidation
// latency and home-message load: the same d-sharer transaction rerun with
// the block homed at every node of the mesh diagonal. Corner homes pay
// longer worm paths than central homes — the placement effect E11
// aggregates, shown per node here. Each home is one point, in ascending
// home order; a point an interrupt skipped has no row.
func (l Lab) FigHomePlacement(k, d, trials int) *report.Table {
	mesh := topology.NewSquareMesh(k)
	var pts []sweep.Point
	for i := 0; i < k; i++ {
		h := mesh.ID(topology.Coord{X: i, Y: i})
		pts = append(pts, sweep.Point{K: k, Scheme: grouping.MIMAEC, D: d, Trials: trials, Seed: 1, Home: &h})
	}
	t := report.NewTable(
		fmt.Sprintf("E11b: per-home invalidation latency, diagonal homes, %dx%d mesh, d=%d (MI-MA e-cube)", k, k, d),
		"home", "x", "y", "txns", "mean lat", "home msgs")
	for _, r := range l.runSweep(pts) {
		h, lat := *r.Point.Home, r.Measures.Latency
		if lat.N() == 0 {
			continue
		}
		c := mesh.Coord(h)
		// HomeMsgs is the per-transaction mean of an integer total.
		t.Row(h, c.X, c.Y, lat.N(), lat.Mean(), uint64(math.Round(r.Measures.HomeMsgs*float64(lat.N()))))
	}
	return t
}

// AblationPlacement renders E11: sensitivity of each multidestination
// scheme to sharer placement.
func (l Lab) AblationPlacement(k, d, trials int) *report.Table {
	pats := []workload.Pattern{
		workload.RandomPlacement, workload.ClusteredPlacement,
		workload.ColumnPlacement, workload.RowPlacement, workload.DiagonalPlacement,
	}
	schemes := []grouping.Scheme{grouping.MIUAEC, grouping.MIMAEC, grouping.MIMAECRC, grouping.MIMAPA, grouping.MIMATM}
	t := report.NewTable(fmt.Sprintf("E11: placement sensitivity, %dx%d mesh, d=%d", k, k, d),
		schemeCols([]string{"placement"}, schemes, " lat", " worms")...)
	var pts []sweep.Point
	for _, pat := range pats {
		for _, s := range schemes {
			pts = append(pts, sweep.Point{K: k, Scheme: s, D: d, Pattern: pat, Trials: trials, Seed: 1})
		}
	}
	gridRows(t, pats, l.runSweep(pts), func(m sweep.Measures) []any { return []any{m.Latency.Mean(), m.Groups} })
	return t
}

// AblationConsumptionChannels renders E12: how many consumption channels
// the router interface needs before multidestination worms stop starving
// (the paper relies on 4 for deadlock freedom; fewer also throttles
// throughput [2]).
func (l Lab) AblationConsumptionChannels(k, d, writers int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E12: consumption channels ablation, %d concurrent MI-MA-ec invalidations, %dx%d mesh, d=%d", writers, k, k, d),
		"consumption channels", "mean latency", "makespan")
	chans := []int{1, 2, 4, 8}
	var pts []sweep.Point
	for _, c := range chans {
		// VCT keeps one-buffer corner cases live-locked-free while the
		// consumption channels are the varied resource.
		pts = append(pts, burst(k, grouping.MIMAEC, d,
			sweep.HotSpot{Writers: writers, OverlapSharers: true, DistinctHomes: true},
			&coherence.Variant{ConsumptionChannels: c, VCTDeferred: true}))
	}
	gridRows(t, chans, l.runSweep(pts), func(m sweep.Measures) []any { return []any{m.Latency.Mean(), uint64(m.Makespan)} })
	return t
}

// Table4 renders the derived memory miss latencies (paper Table 4), in
// 5 ns cycles, on an 8x8 mesh with the default technology point.
func Table4() *report.Table {
	p := workload.DefaultMicroParams(grouping.UIUA)
	t := report.NewTable("Table 4: derived typical memory miss latencies (5 ns cycles, 8x8 mesh)",
		"operation", "cycles", "microseconds")
	for _, kind := range workload.AllMissKinds {
		cycles := workload.MeasureMiss(p, kind)
		t.Row(kind.String(), uint64(cycles), float64(cycles)*5/1000)
	}
	return t
}

// Table5 renders the clean neighbor read-miss latency breakdown (paper
// Table 5).
func Table5() *report.Table {
	p := workload.DefaultMicroParams(grouping.UIUA)
	rows, total := workload.ReadMissBreakdown(p)
	measured := workload.MeasureMiss(p, workload.ReadMissNeighborClean)
	t := report.NewTable("Table 5: breakdown of a clean read-miss to a neighboring node (5 ns cycles)",
		"component", "cycles")
	for _, r := range rows {
		t.Row(r.Component, uint64(r.Cycles))
	}
	t.Row("TOTAL (sum of components)", uint64(total))
	t.Row("TOTAL (measured end-to-end)", uint64(measured))
	return t
}

// Table6 renders the application characteristics (paper Table 6) measured
// under the UI-UA baseline on a 4x4 mesh.
func (l Lab) Table6() *report.Table {
	t := report.NewTable("Table 6: application characteristics (16 processors, UI-UA baseline)",
		"application", "shared reads", "shared writes", "barriers",
		"inval txns", "avg sharers", "max sharers", "exec cycles")
	for i, cells := range l.runApps(apps.PaperNames, []coherence.Variant{{}}, []grouping.Scheme{grouping.UIUA}) {
		a := cells[0]
		t.Row(apps.PaperNames[i], a.Reads, a.Writes, a.Barriers, a.Invals, a.AvgSharers, a.MaxSharers, uint64(a.Time))
	}
	return t
}

// AppSchemes is the framework set of the application comparison (E9).
var AppSchemes = []grouping.Scheme{grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC, grouping.MIMATM}

// FigApplications renders E9: application execution time under each
// framework, normalized to UI-UA.
func (l Lab) FigApplications() *report.Table {
	t := report.NewTable("E9: normalized application execution time (16 processors, 4x4 mesh)",
		append(schemeCols([]string{"application"}, AppSchemes), "UI-UA cycles")...)
	normalizedRows(t, apps.PaperNames, l.runApps(apps.PaperNames, []coherence.Variant{{}}, AppSchemes))
	return t
}

// pairSchemes are the unicast baseline and the best multidestination
// framework, the pair E13 and E23 compare.
var pairSchemes = []grouping.Scheme{grouping.UIUA, grouping.MIMAEC}

// FigConsistency renders E13: application execution time under sequential
// versus release consistency for the baseline and the best
// multidestination framework. Under RC, write (invalidation) latency hides
// behind computation, so the framework gap narrows on latency — but the
// occupancy and traffic savings of MI-MA remain.
func (l Lab) FigConsistency() *report.Table {
	t := report.NewTable("E13: consistency model x framework, normalized application execution time (16 processors)",
		"application", "SC UI-UA", "SC MI-MA-ec", "RC UI-UA", "RC MI-MA-ec", "SC UI-UA cycles")
	normalizedRows(t, apps.PaperNames, l.runApps(apps.PaperNames,
		[]coherence.Variant{{}, {Consistency: coherence.ReleaseConsistency}}, pairSchemes))
	return t
}

// FigVirtualChannels renders E14: hot-spot bursts under 1, 2 and 4 virtual
// channels per link, for the baseline and MI-MA frameworks. Extra lanes
// relieve the serialization that blocked worms impose on physical links.
func (l Lab) FigVirtualChannels(k, d, writers int) *report.Table {
	schemes := []grouping.Scheme{grouping.UIUA, grouping.MIMAEC, grouping.MIMATM}
	t := report.NewTable(
		fmt.Sprintf("E14: makespan (cycles) of %d concurrent invalidations vs virtual channels, %dx%d mesh, d=%d",
			writers, k, k, d), schemeCols([]string{"virtual channels"}, schemes)...)
	vcss := []int{1, 2, 4}
	var pts []sweep.Point
	for _, vcs := range vcss {
		for _, s := range schemes {
			pts = append(pts, burst(k, s, d, sweep.HotSpot{Writers: writers, OverlapSharers: true, DistinctHomes: true},
				&coherence.Variant{VirtualChannels: vcs}))
		}
	}
	gridRows(t, vcss, l.runSweep(pts), makespan)
	return t
}

// invalSizeBuckets are the Weber/Gupta-style invalidation size classes.
var invalSizeBuckets = []struct {
	label    string
	min, max int
}{
	{"1", 1, 1}, {"2", 2, 2}, {"3-4", 3, 4}, {"5-8", 5, 8},
	{"9-15", 9, 15}, {">=16", 16, 1 << 30},
}

// FigInvalSizeDistribution renders E17: the distribution of invalidation
// sizes each application produces — the "cache invalidation patterns"
// analysis of the paper's related work [3, 16] that motivates which
// grouping scheme pays off where. Its cells are Table 6's replays. A stored
// replay with transactions but no sharer histogram predates the histogram,
// and fails the figure with an error naming it rather than printing zeros.
func (l Lab) FigInvalSizeDistribution() *report.Table {
	cols := []string{"application"}
	for _, b := range invalSizeBuckets {
		cols = append(cols, b.label)
	}
	cols = append(cols, "total txns")
	t := report.NewTable("E17: invalidation size distribution (percent of transactions, 16 processors, UI-UA)", cols...)
	for i, cells := range l.runApps(apps.PaperNames, []coherence.Variant{{}}, []grouping.Scheme{grouping.UIUA}) {
		name, a := apps.PaperNames[i], cells[0]
		mustBeFresh(appPoint(name, grouping.UIUA, coherence.Variant{}), a.Invals > 0 && len(a.Sharers) == 0,
			fmt.Sprintf("has %d invalidations and no sharer histogram", a.Invals))
		row := []any{name}
		for _, b := range invalSizeBuckets {
			c := 0
			for n := b.min; n <= b.max && n < len(a.Sharers); n++ {
				c += a.Sharers[n]
			}
			pct := 0.0
			if a.Invals > 0 {
				pct = 100 * float64(c) / float64(a.Invals)
			}
			row = append(row, pct)
		}
		t.Row(append(row, a.Invals)...)
	}
	return t
}

// InjectionRates is the offered-load axis of E19 (worms per node per 1000
// cycles).
var InjectionRates = []float64{1, 5, 10, 20, 30, 40}

// FigOfferedLoad renders E19: the classic network latency-versus-offered-
// load curve under uniform random unicast traffic, for 1 and 2 virtual
// channels per link — the substrate validation experiment of the wormhole
// routing literature the paper builds on [27, 33].
func (l Lab) FigOfferedLoad(k int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E19: uniform traffic on a %dx%d mesh: latency vs offered load", k, k),
		"rate (worms/node/kcycle)", "1 VC latency", "1 VC util", "2 VC latency", "2 VC util")
	var pts []sweep.Point
	for _, rate := range InjectionRates {
		for _, tune := range []*coherence.Variant{nil, {VirtualChannels: 2}} {
			pts = append(pts, sweep.Point{K: k, Trials: 1, Seed: 1, OfferedLoad: rate, Tune: tune})
		}
	}
	gridRows(t, InjectionRates, l.runSweep(pts), func(m sweep.Measures) []any {
		return []any{m.TrafficLatency, report.Float3(m.LinkUtil)}
	})
	return t
}

// FigSharingDependence renders E23: the application-level gain of
// multidestination invalidation as a function of each workload's sharing
// degree, across the paper's three applications plus the Jacobi stencil
// extension (nearest-neighbor sharing, the negative control). The gain
// tracks average invalidation size: broadcast-sharing workloads benefit,
// pairwise producer-consumer workloads cannot.
func (l Lab) FigSharingDependence() *report.Table {
	t := report.NewTable("E23: sharing degree vs multidestination gain (16 processors)",
		"application", "avg sharers", "UI-UA cycles", "MI-MA-ec cycles", "gain %")
	names := slices.Concat(apps.PaperNames, []string{"Jacobi"})
	for i, cells := range l.runApps(names, []coherence.Variant{{}}, pairSchemes) {
		ui, mm := cells[0], cells[1]
		gain := 0.0
		if ui.Time > 0 {
			gain = 100 * (1 - ratio(mm.Time, ui.Time))
		}
		t.Row(names[i], ui.AvgSharers, uint64(ui.Time), uint64(mm.Time), gain)
	}
	return t
}

// FigCongestion renders E24: the per-link congestion pattern of a UI-UA
// invalidation burst, verifying the paper's observation verbatim: "In the
// request phase, the X-dimension links along the row containing the home
// node are congested. While in the acknowledging phase, the Y-dimension
// links along the column containing the home node are congested." The
// request network carries invalidations (X-first e-cube from the home
// row); the reply network carries acks (reverse-routed, Y-first into the
// home column).
func FigCongestion(k, d, writers int) *report.Table {
	if d > k*k-2 {
		// The d sharers and the writer of each transaction are distinct
		// nodes other than the home.
		panic(fmt.Sprintf("experiments: E24 places d=%d sharers, a writer and the home on a %dx%d mesh (d at most %d)", d, k, k, k*k-2))
	}
	p := coherence.DefaultParams(k, grouping.UIUA)
	m := coherence.NewMachine(p)
	rng := sim.NewRNG(1)
	home := m.Mesh.ID(topology.Coord{X: k / 2, Y: k / 2})
	// Several back-to-back transactions at one home keep the links busy
	// long enough for utilization to show the pattern.
	for i := 0; i < writers; i++ {
		block := directory.BlockID(uint64(home) + uint64(i+1)*uint64(m.Mesh.Nodes()))
		var sharers []topology.NodeID
		seen := map[topology.NodeID]bool{home: true}
		for len(sharers) < d {
			n := topology.NodeID(rng.Intn(m.Mesh.Nodes()))
			if !seen[n] {
				seen[n] = true
				sharers = append(sharers, n)
			}
		}
		for _, s := range sharers {
			workload.RunOp(m, false, s, block)
		}
		var writer topology.NodeID
		for {
			writer = topology.NodeID(rng.Intn(m.Mesh.Nodes()))
			if !seen[writer] {
				break
			}
		}
		workload.RunOp(m, true, writer, block)
	}

	hc := m.Mesh.Coord(home)
	rowMean := func(util []float64, row int, inRow bool) float64 {
		var sum float64
		var cnt int
		for id := 0; id < m.Mesh.Nodes(); id++ {
			if (m.Mesh.Coord(topology.NodeID(id)).Y == row) == inRow {
				sum += util[id]
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	colMean := func(util []float64, col int, inCol bool) float64 {
		var sum float64
		var cnt int
		for id := 0; id < m.Mesh.Nodes(); id++ {
			if (m.Mesh.Coord(topology.NodeID(id)).X == col) == inCol {
				sum += util[id]
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	reqX := m.Net.DimUtilization(network.Request, 'x')
	repY := m.Net.DimUtilization(network.Reply, 'y')

	t := report.NewTable(
		fmt.Sprintf("E24: UI-UA congestion pattern, %dx%d mesh, d=%d, %d transactions (mean link utilization x1000)", k, k, d, writers),
		"links", "home row/column", "elsewhere", "ratio")
	hr := rowMean(reqX, hc.Y, true) * 1000
	or := rowMean(reqX, hc.Y, false) * 1000
	t.Row("request X-links", hr, or, report.Float3(hr/or))
	hcY := colMean(repY, hc.X, true) * 1000
	ocY := colMean(repY, hc.X, false) * 1000
	t.Row("reply Y-links", hcY, ocY, report.Float3(hcY/ocY))
	return t
}

// FaultRates is the injected worm-drop-rate axis of E26.
var FaultRates = []float64{0, 0.05, 0.1, 0.2}

// FaultSchemes is the framework set of the fault-recovery sweep: the
// unicast baseline plus the two multidestination frameworks that degrade to
// it under retry.
var FaultSchemes = []grouping.Scheme{grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC}

// FigFaultRecovery renders E26: invalidation latency and recovery retries
// versus injected fault rate. Each non-zero rate drops that fraction of
// invalidation-class worms mid-flight and loses half that fraction of i-ack
// posts; the home's i-ack timeout then retries the unacknowledged sharers
// with unicast invalidations (the MI→UI degradation). The latency columns
// show what recovery costs — a dropped multidestination worm forfeits the
// whole group and pays a timeout plus per-sharer unicasts, so MI-MA's
// fault-free advantage erodes as the rate climbs — and the retry columns
// show how hard the machinery worked. Fault schedules are seeded per point,
// so the table is byte-identical at any -parallel.
func (l Lab) FigFaultRecovery(k, d, trials int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E26: invalidation latency and recovery retries vs fault rate, %dx%d mesh, d=%d, random placement", k, k, d),
		schemeCols([]string{"drop rate"}, FaultSchemes, " lat", " retries")...)
	var pts []sweep.Point
	var rates []report.Float3
	for _, rate := range FaultRates {
		rates = append(rates, report.Float3(rate))
		for _, s := range FaultSchemes {
			idx := len(pts)
			p := sweep.Point{K: k, Scheme: s, D: d, Trials: trials, Seed: uint64(d) + 7}
			if rate > 0 {
				p.Faults = &faults.Config{
					Seed:        sim.DeriveSeed(0xFA171CE5, uint64(idx)),
					DropRate:    rate,
					AckLossRate: rate / 2,
				}
			}
			pts = append(pts, p)
		}
	}
	gridRows(t, rates, l.runSweep(pts), func(m sweep.Measures) []any { return []any{m.Latency.Mean(), m.Retries} })
	return t
}

// FigOccupancyProfile renders E27: the trace-derived occupancy profile of
// a hot-spot invalidation burst under each scheme. Every cell runs the
// burst with the cycle-level event recorder attached and folds the
// recording through the occupancy profiler: the home controller's busy
// time and busy share, its worst single service task, and the mesh-link
// utilization statistics. The home columns are where the paper's central
// claim shows up as occupancy rather than message counts: MI-MA's gather
// acks cut the home's service time per transaction, so its busy share
// drops well below UI-UA's while mean link utilization stays comparable.
// Tracing is observational, so the burst measurements match an untraced
// run cycle-for-cycle.
func (l Lab) FigOccupancyProfile(k, d, writers int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E27: trace-derived occupancy profile, %d-writer hot-spot burst, %dx%d mesh, d=%d", writers, k, k, d),
		"scheme", "makespan", "home busy", "home share", "home max task",
		"mean link util x1000", "peak link util x1000", "peak link")
	var pts []sweep.Point
	for _, s := range CompareSchemes {
		pts = append(pts, burst(k, s, d, sweep.HotSpot{Writers: writers, Occupancy: true}, nil))
	}
	for _, r := range l.runSweep(pts) {
		m := r.Measures
		var o sweep.OccupancyMeasures // zero for a burst an interrupt skipped
		if m.Occupancy != nil {
			o = *m.Occupancy
		}
		homeShare := 0.0
		if m.Makespan > 0 {
			homeShare = float64(o.HomeBusy) / float64(m.Makespan)
		}
		peak := o.PeakLink
		if peak == "" {
			peak = "-"
		}
		t.Row(r.Point.Scheme.String(), int64(m.Makespan), int64(o.HomeBusy), report.Float3(homeShare),
			int64(o.HomeMaxTask), o.MeanLinkUtil*1000, o.PeakLinkUtil*1000, peak)
	}
	return t
}

package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cmdTrace runs one sweep point on the simulated wormhole DSM and shows what
// it did: the point's measures, the worms a grouping scheme builds, top-k
// critical paths with Table-5-style latency attribution, an occupancy
// profile with link heatmaps, the protocol event stream, and
// Chrome/Perfetto timeline export (load the output at
// https://ui.perfetto.dev).
//
//	dsmsimctl trace -point '{"k":16,"d":16,"scheme":"MI-MA-ec","trials":10,"seed":1}' -top 0
//	dsmsimctl trace -point '{"k":12,"d":16,"scheme":"UI-UA","trials":10,"seed":1}' -top 0 -occupancy
//	dsmsimctl trace -workload groups -point '{"k":8,"d":6,"scheme":"MI-MA-tm","trials":1,"seed":1}'
//	dsmsimctl trace -point '{"k":4,"scheme":"MI-MA-ec","trials":1,"app":"LU"}' -top 1 -events
//	dsmsimctl trace -point '{"k":16,"d":8,"trials":1,"seed":1,"hot_spot":{"writers":8}}' -perfetto burst.json
//	dsmsimctl trace -workload miss -kind 2 -top 5 -o run.trace.json
//	dsmsimctl trace -in run.trace.json -top 10 -occupancy
//
// -point is a sweep.Point in JSON (scheme and pattern by name or number; an
// unknown field is an error), the one language of the experiments' cells
// and the daemon's jobs; the default is a 16x16 MI-MA-ec point with d=8 over
// 10 trials. Every kind runs. An invalidation point (homed or not) prints
// its seven-row measures table; a burst, replay or traffic point prints its
// Measures JSON, the bytes sweep.RunPointDirect computes for it.
//
// Workloads: point (run -point), groups (draw the worms the point's scheme
// builds for the sharers its first trial invalidates; nothing is simulated)
// and miss (one Table 4 miss scenario on the point's scheme and tune; -kind
// selects the row, 0-7). A recorder is attached only when something reads
// the recording: -top > 0, -occupancy, -events, -o or -perfetto. With -in,
// no simulation runs: the recorded trace file is re-analyzed instead.
//
// In a groups drawing H is the home, * a sharer on the worm's path, S a
// sharer off it, + a node the worm only passes through, . any other node.
// A command line it refuses is a usage error; the report goes to stdout.
func cmdTrace(args []string, w, stderr io.Writer) error {
	o, err := parseTrace(args, stderr)
	if err != nil {
		return err
	}
	var file *trace.File
	switch {
	case o.in != "":
		if file, err = readTrace(o.in); err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded %s: %s/%s %dx%d d=%d, %d events (%d dropped at record time)\n",
			o.in, file.Workload, file.Scheme, file.Width, file.Height, file.D,
			len(file.Events), file.Dropped)
	case o.workload == "groups":
		drawGroups(w, o.point)
		return nil
	default:
		if file, err = simulate(w, o); err != nil || file == nil {
			return err
		}
	}

	if o.out != "" {
		if err := writeFile(o.out, file.Write); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d events to %s\n", len(file.Events), o.out)
	}
	if o.perfetto != "" {
		err := writeFile(o.perfetto, func(f io.Writer) error { return trace.WritePerfetto(f, file.Events) })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Perfetto timeline to %s\n", o.perfetto)
	}
	if o.top > 0 {
		printTop(w, file.Events, o.top)
	}
	if o.occupancy {
		printOccupancy(w, file.Events)
		printHeatmaps(w, file.Events, file.Width, file.Height)
	}
	if o.events {
		printEvents(w, file.Events)
	}
	return nil
}

// traceOptions is trace's parsed command line.
type traceOptions struct {
	point             sweep.Point
	workload          string
	kind, capacity    int
	probe             uint64
	out, perfetto, in string
	top               int
	occupancy, events bool
}

func parseTrace(args []string, stderr io.Writer) (traceOptions, error) {
	var o traceOptions
	var point string
	fs := newFlagSet("dsmsimctl trace", stderr)
	fs.StringVar(&point, "point", `{"k":16,"scheme":"MI-MA-ec","d":8,"trials":10,"seed":1}`,
		"the sweep point to run, as JSON (scheme and pattern by name or number)")
	fs.StringVar(&o.workload, "workload", "point", "workload: point|groups|miss")
	fs.IntVar(&o.kind, "kind", 2, "miss scenario for -workload miss (Table 4 row, 0-7)")
	fs.IntVar(&o.capacity, "cap", 1<<20, "ring-buffer capacity in events (oldest overwritten beyond it)")
	fs.Uint64Var(&o.probe, "engine", 0, "sample a machine's engine queue every N fired events (0 = off; a traffic run has no machine)")
	fs.StringVar(&o.out, "o", "", "write the recording to this trace JSON file")
	fs.StringVar(&o.perfetto, "perfetto", "", "write a Chrome/Perfetto timeline to this file")
	fs.IntVar(&o.top, "top", 3, "print the K highest-latency operations' critical paths (0 = none)")
	fs.BoolVar(&o.occupancy, "occupancy", false, "print the occupancy profile and link heatmaps")
	fs.BoolVar(&o.events, "events", false, "print the recording's protocol events")
	fs.StringVar(&o.in, "in", "", "analyze this recorded trace file instead of running a simulation")
	if fs.Parse(args) != nil {
		return o, errUsage
	}
	dec := json.NewDecoder(strings.NewReader(point))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o.point); err != nil {
		return o, usagef("trace: -point: %v", err)
	}
	if dec.More() {
		return o, usagef("trace: -point: data after the point")
	}
	if err := o.point.Check(); err != nil {
		return o, usagef("trace: -point %v", err)
	}
	switch {
	case o.workload != "point" && o.workload != "groups" && o.workload != "miss":
		return o, usagef("trace: unknown workload %q (want point, groups or miss)", o.workload)
	case o.workload != "point" && !isInval(o.point):
		return o, usagef("trace: -workload %s takes an invalidation point", o.workload)
	case o.workload == "miss" && (o.kind < 0 || o.kind >= len(workload.AllMissKinds)):
		return o, usagef("trace: -kind %d out of range [0,%d)", o.kind, len(workload.AllMissKinds))
	}
	return o, nil
}

// isInval reports whether p is an invalidation point, homed or not.
func isInval(p sweep.Point) bool { return p.HotSpot == nil && p.App == "" && p.OfferedLoad == 0 }

// readTrace reads a recorded trace file.
func readTrace(path string) (*trace.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	file, err := trace.ReadFile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// simulate runs the point, or for -workload miss its miss scenario, and
// prints its outcome. It attaches a recorder only when something reads the
// recording, and returns the recording (nil without one).
func simulate(w io.Writer, o traceOptions) (*trace.File, error) {
	var rec *trace.Recorder
	if o.top > 0 || o.occupancy || o.events || o.out != "" || o.perfetto != "" {
		rec = trace.NewRecorder(o.capacity)
		rec.ProbeEvery = o.probe
	}
	p := o.point
	file := &trace.File{
		Version: trace.FileVersion, Width: p.K, Height: p.K, Scheme: p.Scheme.String(),
		Workload: o.workload, D: p.D, Trials: p.Trials, Seed: p.Seed,
	}
	if o.workload == "miss" {
		mk := workload.AllMissKinds[o.kind]
		params := workload.DefaultMicroParams(p.Scheme)
		p.Tune.Apply(&params)
		lat := workload.MeasureMissTraced(params, mk, rec)
		file.Width, file.Height, file.D, file.Trials = params.MeshSize, params.MeshSize, 0, 1
		fmt.Fprintf(w, "%q: %d cycles\n", mk, lat)
	} else {
		m, _ := sweep.RunPointRecorded(context.Background(), p, rec)
		if err := printMeasures(w, p, m); err != nil {
			return nil, err
		}
	}
	if rec == nil {
		return nil, nil
	}
	file.Dropped = rec.Dropped()
	file.Events = rec.Events()
	if file.Dropped > 0 {
		fmt.Fprintf(w, "warning: ring wrapped, %d oldest events dropped (raise -cap)\n", file.Dropped)
	}
	return file, nil
}

// printMeasures prints a point's outcome: an invalidation point's seven-row
// measures table, or any other point's Measures as json.Marshal encodes them.
func printMeasures(w io.Writer, p sweep.Point, m sweep.Measures) error {
	if !isInval(p) {
		b, err := json.Marshal(m)
		if err == nil {
			fmt.Fprintf(w, "%s\n", b)
		}
		return err
	}
	home := ""
	if p.Home != nil {
		home = fmt.Sprintf(", home node %d", *p.Home)
	}
	t := report.NewTable(
		fmt.Sprintf("Invalidation transaction, %s, %dx%d mesh, d=%d, %s placement%s (%d trials)",
			p.Scheme, p.K, p.K, p.D, p.Pattern, home, p.Trials),
		"measure", "value")
	t.Row("latency mean (cycles)", m.Latency.Mean())
	t.Row("latency min (cycles)", m.Latency.Min())
	t.Row("latency max (cycles)", m.Latency.Max())
	t.Row("request worms per txn", m.Groups)
	t.Row("home messages per txn", m.HomeMsgs)
	t.Row("total messages per txn", m.Messages)
	t.Row("flit-hops per txn", m.FlitHops)
	fmt.Fprint(w, t.String())
	return nil
}

// drawGroups draws every worm p's scheme builds to invalidate the sharers of
// p's first trial: the same mesh, home, placement and seed.
func drawGroups(w io.Writer, p sweep.Point) {
	mesh := topology.NewSquareMesh(p.K)
	home := mesh.ID(topology.Coord{X: p.K / 2, Y: p.K / 2})
	if p.Home != nil {
		home = *p.Home
	}
	// Seed 0 places as seed 1, as in workload.RunInval.
	sharers := workload.PlaceSharers(mesh, sim.NewRNG(max(p.Seed, 1)), home, p.D, p.Pattern)
	groups := grouping.Groups(p.Scheme, mesh, home, sharers)
	fmt.Fprintf(w, "%s on a %dx%d mesh: %d sharers -> %d worm(s)\n\n",
		p.Scheme, p.K, p.K, len(sharers), len(groups))
	for gi, g := range groups {
		conf := "conformed to " + g.Base.String()
		if !g.Conformed {
			conf = "path-based (not BRCP-conformed)"
		}
		fmt.Fprintf(w, "worm %d: %d member(s), %d hops, %s\n",
			gi+1, len(g.Members), len(g.Path)-1, conf)
		fmt.Fprint(w, g.Draw(mesh, home, sharers))
		fmt.Fprintln(w)
	}
}

// printTop prints the K highest-latency operations with their critical-path
// attribution.
func printTop(w io.Writer, events []trace.Event, k int) {
	a := trace.Analyze(events)
	if len(a.Ops) == 0 {
		fmt.Fprintln(w, "no completed operations in the recording")
		return
	}
	fmt.Fprintf(w, "\n%d operations, %d invalidation transactions analyzed; top %d by latency:\n",
		len(a.Ops), len(a.Txns), k)
	for _, op := range a.TopOps(k) {
		kindStr := "read"
		if op.Write {
			kindStr = "write"
		}
		status := ""
		if !op.Resolved {
			status = "  [chain partially unresolved]"
		}
		fmt.Fprintf(w, "\nop %d: %s node %d block %d: %d cycles (issue @%d)%s\n",
			op.Tok, kindStr, op.Node, op.Block, op.Latency(), op.Issue, status)
		for _, seg := range op.Segments {
			fmt.Fprintf(w, "  %-36s %6d cycles\n", seg.Component, seg.Cycles())
		}
		if op.Sum() != op.Latency() {
			// Unreachable by construction; loud if it ever regresses.
			fmt.Fprintf(w, "  !! attribution sum %d != latency %d\n", op.Sum(), op.Latency())
		}
	}
}

// printOccupancy prints the profile: the busiest nodes and links.
func printOccupancy(w io.Writer, events []trace.Event) {
	p := trace.Occupancy(events)
	fmt.Fprintf(w, "\noccupancy profile: horizon %d cycles, %d nodes, %d channels\n",
		p.Horizon, len(p.Nodes), len(p.Links))
	fmt.Fprintln(w, "busiest protocol controllers:")
	for _, n := range busiest(p.Nodes, func(n trace.NodeUse) sim.Time { return n.Busy }) {
		fmt.Fprintf(w, "  node %-4d busy %7d cycles (%4.1f%%), %d tasks, max task %d\n",
			n.Node, n.Busy, 100*p.NodeShare(n), n.Tasks, n.MaxTask)
	}
	fmt.Fprintln(w, "busiest mesh links:")
	for _, l := range busiest(p.MeshLinks(), func(l trace.LinkUse) sim.Time { return l.Busy }) {
		fmt.Fprintf(w, "  %3d->%-3d vn%d busy %7d cycles (%4.1f%%), %d holds\n",
			l.From, l.To, l.VN, l.Busy, 100*p.Util(l), l.Holds)
	}
	if p.OpenHolds > 0 || p.Reopened > 0 {
		fmt.Fprintf(w, "  (%d holds never closed, %d reopened: ring wrap-around)\n",
			p.OpenHolds, p.Reopened)
	}
}

// printHeatmaps maps, per node, the busy share of its outgoing request-
// network X links, reply-network Y links and all mesh links (each link's
// busy time over the recording's horizon, summed over the node's links):
// the paper's home-row request and home-column acknowledgment congestion.
func printHeatmaps(w io.Writer, events []trace.Event, width, height int) {
	p := trace.Occupancy(events)
	reqX := make([]float64, width*height)
	repY := make([]float64, width*height)
	all := make([]float64, width*height)
	for _, l := range p.MeshLinks() {
		u := p.Util(l)
		all[l.From] += u
		sameRow := int(l.From)/width == int(l.To)/width
		switch {
		case network.VN(l.VN) == network.Request && sameRow:
			reqX[l.From] += u
		case network.VN(l.VN) == network.Reply && !sameRow:
			repY[l.From] += u
		}
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, report.Heatmap("request-network X-link busy share", reqX, width, height))
	fmt.Fprintln(w)
	fmt.Fprint(w, report.Heatmap("reply-network Y-link busy share", repY, width, height))
	fmt.Fprintln(w)
	fmt.Fprint(w, report.Heatmap("all-links busy share", all, width, height))
}

// printEvents prints the recording's protocol-level events (operation,
// message, directory and transaction milestones), one per line.
func printEvents(w io.Writer, events []trace.Event) {
	fmt.Fprintln(w, "\nprotocol events:")
	for _, e := range events {
		var detail string
		switch e.Kind {
		case trace.KindOpIssue, trace.KindOpMiss, trace.KindOpDone:
			what := "read"
			switch e.Flag {
			case trace.FlagWrite:
				what = "write"
			case trace.FlagHit:
				what = "hit"
			}
			detail = fmt.Sprintf("%s op %d", what, e.Txn)
		case trace.KindMsgSend, trace.KindMsgRecv, trace.KindDirDone:
			detail = e.Label
			if e.Kind != trace.KindDirDone {
				detail += fmt.Sprintf(" worm %d", e.Worm)
			}
			if e.B != 0 {
				detail += fmt.Sprintf(" op %d", e.B)
			}
			if e.Txn != 0 {
				detail += fmt.Sprintf(" txn %d", e.Txn)
			}
			if e.Flag == trace.FlagFinal {
				detail += " final"
			}
		case trace.KindTxnStart:
			detail = fmt.Sprintf("txn %d: %d sharers, %d worms", e.Txn, e.A, e.B)
		case trace.KindTxnDone:
			detail = fmt.Sprintf("txn %d: %d retries", e.Txn, e.A)
		case trace.KindTxnRetry:
			detail = fmt.Sprintf("txn %d: retry %d, %d worms killed", e.Txn, e.A, e.B)
		case trace.KindWormInject, trace.KindWormHead, trace.KindWormBlock, trace.KindWormGrant,
			trace.KindWormHold, trace.KindWormRelease, trace.KindWormDrain, trace.KindWormDeliver,
			trace.KindWormDone, trace.KindWormKill, trace.KindWormPark, trace.KindWormResume,
			trace.KindAckPost, trace.KindServerBusy, trace.KindFaultDrop, trace.KindFaultStall,
			trace.KindFaultSlow, trace.KindFaultAckLoss, trace.KindEngineQueue:
			continue // fabric, controller and engine events: not protocol-level
		default:
			panic("dsmsimctl trace: unknown event kind")
		}
		fmt.Fprintf(w, "[%8d] node %3d %-8s block %-6d %s\n", e.At, e.Node, e.Kind, e.Block, detail)
	}
}

// busiest returns the five entries of xs with the most busy time, busiest
// first (ties keep their order).
func busiest[T any](xs []T, busy func(T) sim.Time) []T {
	out := slices.Clone(xs)
	slices.SortStableFunc(out, func(a, b T) int { return cmp.Compare(busy(b), busy(a)) })
	return out[:min(5, len(out))]
}

// Command wormtrace runs one workload on the simulated wormhole DSM and
// shows what it did: the invalidation measures, the worms a grouping scheme
// builds, top-k critical paths with Table-5-style latency attribution, an
// occupancy profile with link heatmaps, the protocol event stream, and
// Chrome/Perfetto timeline export (load the output at
// https://ui.perfetto.dev).
//
// Usage:
//
//	wormtrace -workload inval -k 16 -d 16 -scheme MI-MA-ec -top 0
//	wormtrace -workload inval -k 8 -d 3 -top 0 -events
//	wormtrace -workload inval -k 12 -d 16 -scheme UI-UA -top 0 -occupancy
//	wormtrace -workload groups -k 8 -d 6 -scheme MI-MA-tm
//	wormtrace -workload miss -kind 2 -top 5 -o run.trace.json
//	wormtrace -workload hotspot -writers 8 -perfetto burst.json
//	wormtrace -in run.trace.json -top 10 -occupancy
//
// Workloads: inval (the E4-E6 invalidation experiment; prints its measures
// table), groups (draws the worms -scheme builds for the sharers inval's
// first trial invalidates; nothing is simulated), hotspot (the concurrent-
// invalidation burst), miss (one Table 4 miss scenario; -kind selects the
// row, 0-7). -torus, -vct, -iackbufs and -cons vary the machine of every
// workload. A recorder is attached only when something reads the
// recording: -top > 0, -occupancy, -events, -o or -perfetto. With -in, no
// simulation runs: the recorded trace file is re-analyzed instead.
//
// In a groups drawing H is the home, * a sharer on the worm's path, S a
// sharer off it, + a node the worm only passes through, . any other node.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/coherence"
	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wormtrace: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// options is the parsed command line.
type options struct {
	workload, scheme, pattern   string
	k, d, trials, writers, kind int
	seed                        uint64
	variant                     coherence.Variant
	capacity                    int
	probe                       uint64
	out, perfetto, in           string
	top                         int
	occupancy, events           bool
}

func parse(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("wormtrace", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "inval", "workload: inval|groups|hotspot|miss")
	fs.IntVar(&o.k, "k", 16, "mesh dimension (k x k)")
	fs.IntVar(&o.d, "d", 8, "sharers to invalidate")
	fs.StringVar(&o.scheme, "scheme", "MI-MA-ec", "invalidation scheme")
	fs.StringVar(&o.pattern, "pattern", "random", "sharer placement: random|clustered|column|row|diagonal")
	fs.IntVar(&o.trials, "trials", 10, "trials (inval workload)")
	fs.IntVar(&o.writers, "writers", 8, "concurrent writers (hotspot workload)")
	fs.IntVar(&o.kind, "kind", 2, "miss scenario for -workload miss (Table 4 row, 0-7)")
	fs.Uint64Var(&o.seed, "seed", 1, "placement seed")
	fs.BoolVar(&o.variant.Torus, "torus", false, "wraparound links (k-ary 2-cube)")
	fs.BoolVar(&o.variant.VCTDeferred, "vct", false, "virtual cut-through deferred delivery for gather worms")
	fs.IntVar(&o.variant.IAckBuffers, "iackbufs", 4, "i-ack buffers per router interface")
	fs.IntVar(&o.variant.ConsumptionChannels, "cons", 4, "consumption channels per router interface")
	fs.IntVar(&o.capacity, "cap", 1<<20, "ring-buffer capacity in events (oldest overwritten beyond it)")
	fs.Uint64Var(&o.probe, "engine", 0, "sample the engine queue every N fired events (0 = off)")
	fs.StringVar(&o.out, "o", "", "write the recording to this trace JSON file")
	fs.StringVar(&o.perfetto, "perfetto", "", "write a Chrome/Perfetto timeline to this file")
	fs.IntVar(&o.top, "top", 3, "print the K highest-latency operations' critical paths (0 = none)")
	fs.BoolVar(&o.occupancy, "occupancy", false, "print the occupancy profile and link heatmaps")
	fs.BoolVar(&o.events, "events", false, "print the recording's protocol events")
	fs.StringVar(&o.in, "in", "", "analyze this recorded trace file instead of running a simulation")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.variant.IAckBuffers < 1 || o.variant.ConsumptionChannels < 1 {
		return o, fmt.Errorf("-iackbufs %d, -cons %d: each wants >= 1",
			o.variant.IAckBuffers, o.variant.ConsumptionChannels)
	}
	// The miss scenarios fix their own mesh and sharers.
	if o.workload != "miss" && (o.d < 1 || o.d > o.k*o.k-2) {
		return o, fmt.Errorf("-d %d out of range [1,%d] for a %dx%d mesh", o.d, o.k*o.k-2, o.k, o.k)
	}
	return o, nil
}

// run executes the command line args, writing the report to w.
func run(w io.Writer, args []string) error {
	o, err := parse(args)
	if err != nil {
		return err
	}
	var file *trace.File
	if o.in != "" {
		if file, err = load(o.in); err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded %s: %s/%s %dx%d d=%d, %d events (%d dropped at record time)\n",
			o.in, file.Workload, file.Scheme, file.Width, file.Height, file.D,
			len(file.Events), file.Dropped)
	} else {
		s, err := grouping.Parse(o.scheme)
		if err != nil {
			return err
		}
		pat, err := workload.ParsePattern(o.pattern)
		if err != nil {
			return err
		}
		if o.workload == "groups" {
			drawGroups(w, o, s, pat)
			return nil
		}
		if file, err = simulate(w, o, s, pat); err != nil || file == nil {
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

// load reads a recorded trace file.
func load(path string) (*trace.File, error) {
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

// simulate runs the selected workload and prints its result. It attaches a
// recorder only when something reads the recording, and returns the
// recording (nil without one).
func simulate(w io.Writer, o options, s grouping.Scheme, pat workload.Pattern) (*trace.File, error) {
	var rec *trace.Recorder
	if o.top > 0 || o.occupancy || o.events || o.out != "" || o.perfetto != "" {
		rec = trace.NewRecorder(o.capacity)
		rec.ProbeEvery = o.probe
	}
	file := &trace.File{
		Version: trace.FileVersion, Width: o.k, Height: o.k,
		Scheme: s.String(), Workload: o.workload, D: o.d, Trials: o.trials, Seed: o.seed,
	}
	switch o.workload {
	case "inval":
		res := workload.RunInval(workload.InvalConfig{
			K: o.k, Scheme: s, D: o.d, Pattern: pat, Trials: o.trials, Seed: o.seed,
			Recorder: rec, Tune: &o.variant,
		})
		t := report.NewTable(
			fmt.Sprintf("Invalidation transaction, %s, %dx%d mesh, d=%d, %s placement (%d trials)",
				s, o.k, o.k, o.d, pat, o.trials),
			"measure", "value")
		t.Row("latency mean (cycles)", res.Latency.Mean())
		t.Row("latency min (cycles)", res.Latency.Min())
		t.Row("latency max (cycles)", res.Latency.Max())
		t.Row("request worms per txn", res.Groups)
		t.Row("home messages per txn", res.HomeMsgs)
		t.Row("total messages per txn", res.Messages)
		t.Row("flit-hops per txn", res.FlitHops)
		fmt.Fprint(w, t.String())
	case "hotspot":
		res := workload.RunHotSpot(workload.HotSpotConfig{
			K: o.k, Scheme: s, D: o.d, Writers: o.writers, Seed: o.seed,
			Recorder: rec, Tune: &o.variant,
		})
		file.Trials = o.writers
		fmt.Fprintf(w, "%d-writer hot-spot burst: makespan %d cycles\n", o.writers, res.Makespan)
	case "miss":
		if o.kind < 0 || o.kind >= len(workload.AllMissKinds) {
			return nil, fmt.Errorf("-kind %d out of range [0,%d)", o.kind, len(workload.AllMissKinds))
		}
		mk := workload.AllMissKinds[o.kind]
		p := workload.DefaultMicroParams(s)
		o.variant.Apply(&p)
		lat := workload.MeasureMissTraced(p, mk, rec)
		file.Width, file.Height = p.MeshSize, p.MeshSize
		file.Trials = 1
		fmt.Fprintf(w, "%q: %d cycles\n", mk, lat)
	default:
		return nil, fmt.Errorf("unknown workload %q (want inval, groups, hotspot or miss)", o.workload)
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

// drawGroups draws every worm the scheme builds to invalidate the sharers
// of the inval workload's first trial (same mesh, home, placement and seed).
func drawGroups(w io.Writer, o options, s grouping.Scheme, pat workload.Pattern) {
	mesh, kind := topology.NewSquareMesh(o.k), "mesh"
	if o.variant.Torus {
		mesh, kind = topology.NewTorus(o.k, o.k), "torus"
	}
	home := mesh.ID(topology.Coord{X: o.k / 2, Y: o.k / 2})
	sharers := workload.PlaceSharers(mesh, sim.NewRNG(o.seed), home, o.d, pat)
	groups := grouping.Groups(s, mesh, home, sharers)
	fmt.Fprintf(w, "%s on a %dx%d %s: %d sharers -> %d worm(s)\n\n",
		s, o.k, o.k, kind, len(sharers), len(groups))
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
	shown := 0
	for _, n := range topNodes(p) {
		fmt.Fprintf(w, "  node %-4d busy %7d cycles (%4.1f%%), %d tasks, max task %d\n",
			n.Node, n.Busy, 100*p.NodeShare(n), n.Tasks, n.MaxTask)
		shown++
		if shown == 5 {
			break
		}
	}
	fmt.Fprintln(w, "busiest mesh links:")
	shown = 0
	for _, l := range topLinks(p) {
		fmt.Fprintf(w, "  %3d->%-3d vn%d busy %7d cycles (%4.1f%%), %d holds\n",
			l.From, l.To, l.VN, l.Busy, 100*p.Util(l), l.Holds)
		shown++
		if shown == 5 {
			break
		}
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
			panic("wormtrace: unknown event kind")
		}
		fmt.Fprintf(w, "[%8d] node %3d %-8s block %-6d %s\n", e.At, e.Node, e.Kind, e.Block, detail)
	}
}

func topNodes(p *trace.Profile) []trace.NodeUse {
	out := append([]trace.NodeUse(nil), p.Nodes...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Busy > out[j].Busy })
	return out
}

func topLinks(p *trace.Profile) []trace.LinkUse {
	out := append([]trace.LinkUse(nil), p.MeshLinks()...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Busy > out[j].Busy })
	return out
}

// Command dsmsim runs one invalidation-pattern configuration on the
// simulated wormhole DSM and prints its measurements.
//
// Usage:
//
//	dsmsim -k 16 -d 16 -scheme MI-MA-ec -pattern random -trials 10
//
// Schemes: UI-UA, MI-UA-ec, MI-MA-ec, MI-MA-ecrc, MI-UA-pa, MI-MA-pa,
// MI-UA-tm, MI-MA-tm, BR, ADAPT, U-tree.
// Patterns: random, clustered, column, row, diagonal.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// blockHomedAt picks a block whose home is the given node.
func blockHomedAt(m *coherence.Machine, home topology.NodeID) directory.BlockID {
	return directory.BlockID(uint64(home) + uint64(m.Mesh.Nodes()))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsmsim: ")
	var (
		k        = flag.Int("k", 16, "mesh dimension (k x k)")
		d        = flag.Int("d", 8, "number of sharers to invalidate")
		scheme   = flag.String("scheme", "MI-MA-ec", "invalidation scheme")
		pattern  = flag.String("pattern", "random", "sharer placement: random|clustered|column|row|diagonal")
		trials   = flag.Int("trials", 10, "independent transactions")
		seed     = flag.Uint64("seed", 1, "placement seed")
		vct      = flag.Bool("vct", false, "virtual cut-through deferred delivery for gather worms")
		iackBufs = flag.Int("iackbufs", 4, "i-ack buffers per router interface")
		cons     = flag.Int("cons", 4, "consumption channels per router interface")
		trace    = flag.Bool("trace", false, "print the protocol event trace of one annotated transaction")
		heatmap  = flag.Bool("heatmap", false, "print link-utilization heatmaps after an invalidation burst")
	)
	flag.Parse()

	s, err := grouping.Parse(*scheme)
	if err != nil {
		log.Fatal(err)
	}
	pat, err := workload.ParsePattern(*pattern)
	if err != nil {
		log.Fatal(err)
	}
	if *iackBufs < 1 || *cons < 1 {
		log.Fatalf("-iackbufs %d, -cons %d: each wants >= 1", *iackBufs, *cons)
	}
	if *trace {
		traceOneTransaction(s, *k, *d)
		return
	}
	if *heatmap {
		printHeatmaps(s, *k, *d)
		return
	}
	res := workload.RunInval(workload.InvalConfig{
		K: *k, Scheme: s, D: *d, Pattern: pat, Trials: *trials, Seed: *seed,
		Tune: &coherence.Variant{VCTDeferred: *vct, IAckBuffers: *iackBufs, ConsumptionChannels: *cons},
	})

	t := report.NewTable(
		fmt.Sprintf("Invalidation transaction, %s, %dx%d mesh, d=%d, %s placement (%d trials)",
			s, *k, *k, *d, pat, *trials),
		"measure", "value")
	t.Row("latency mean (cycles)", res.Latency.Mean())
	t.Row("latency min (cycles)", res.Latency.Min())
	t.Row("latency max (cycles)", res.Latency.Max())
	t.Row("request worms per txn", res.Groups)
	t.Row("home messages per txn", res.HomeMsgs)
	t.Row("total messages per txn", res.Messages)
	t.Row("flit-hops per txn", res.FlitHops)
	fmt.Fprint(os.Stdout, t.String())
}

// traceOneTransaction runs a single invalidation transaction with the
// protocol tracer attached and prints every event.
func traceOneTransaction(s grouping.Scheme, k, d int) {
	m := coherence.NewMachine(coherence.DefaultParams(k, s))
	m.Trace(func(e coherence.TraceEvent) { fmt.Println(e) })
	rng := sim.NewRNG(1)
	home := m.Mesh.ID(topology.Coord{X: k / 2, Y: k / 2})
	block := blockHomedAt(m, home)
	taken := map[int]bool{int(home): true}
	issued := 0
	for issued < d {
		n := rng.Intn(k * k)
		if taken[n] {
			continue
		}
		taken[n] = true
		done := false
		m.Read(topology.NodeID(n), block, func() { done = true })
		m.Engine.Run()
		if !done {
			log.Fatal("read did not complete")
		}
		issued++
	}
	var writer int
	for {
		writer = rng.Intn(k * k)
		if !taken[writer] {
			break
		}
	}
	fmt.Printf("--- write by node %d invalidating %d sharers under %v ---\n", writer, d, s)
	done := false
	m.Write(topology.NodeID(writer), block, func() { done = true })
	m.Engine.Run()
	if !done {
		log.Fatal("write did not complete")
	}
}

// printHeatmaps runs a burst of invalidation transactions at one home and
// renders the per-node link utilization of each dimension and virtual
// network — the paper's home-row / home-column congestion pattern made
// visible.
func printHeatmaps(s grouping.Scheme, k, d int) {
	m := coherence.NewMachine(coherence.DefaultParams(k, s))
	rng := sim.NewRNG(1)
	home := m.Mesh.ID(topology.Coord{X: k / 2, Y: k / 2})
	for i := 0; i < 8; i++ {
		block := directory.BlockID(uint64(home) + uint64(i+1)*uint64(m.Mesh.Nodes()))
		taken := map[int]bool{int(home): true}
		placed := 0
		for placed < d {
			n := rng.Intn(k * k)
			if taken[n] {
				continue
			}
			taken[n] = true
			done := false
			m.Read(topology.NodeID(n), block, func() { done = true })
			m.Engine.Run()
			if !done {
				log.Fatal("read incomplete")
			}
			placed++
		}
		var writer int
		for {
			writer = rng.Intn(k * k)
			if !taken[writer] {
				break
			}
		}
		done := false
		m.Write(topology.NodeID(writer), block, func() { done = true })
		m.Engine.Run()
		if !done {
			log.Fatal("write incomplete")
		}
	}
	fmt.Printf("Home at (%d,%d); 8 invalidation bursts, d=%d, %v\n\n", k/2, k/2, d, s)
	fmt.Print(report.Heatmap("request-network X-link utilization",
		m.Net.DimUtilization(network.Request, 'x'), k, k))
	fmt.Println()
	fmt.Print(report.Heatmap("reply-network Y-link utilization",
		m.Net.DimUtilization(network.Reply, 'y'), k, k))
}

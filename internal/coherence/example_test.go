package coherence_test

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ExampleNewMachine builds an 8x8 wormhole-routed DSM, shares a block among
// four readers, and watches one write run the whole invalidation
// transaction under the MI-MA e-cube scheme (i-reserve worms out, i-gather
// worms back).
func ExampleNewMachine() {
	m := coherence.NewMachine(coherence.DefaultParams(8, grouping.MIMAEC))
	node := func(x, y int) topology.NodeID { return m.Mesh.ID(topology.Coord{X: x, Y: y}) }
	const block = directory.BlockID(17) // homed at node 17 = (1,2)

	for _, r := range []topology.NodeID{node(5, 1), node(5, 4), node(5, 6), node(2, 7)} {
		cycles := workload.RunOp(m, false, r, block)
		fmt.Printf("read  by node %2d (%v): %4d cycles\n", r, m.Mesh.Coord(r), cycles)
	}
	writer := node(0, 0)
	cycles := workload.RunOp(m, true, writer, block)
	fmt.Printf("write by node %2d (%v): %4d cycles\n", writer, m.Mesh.Coord(writer), cycles)

	rec := m.Metrics.Invals[0]
	fmt.Printf("%d sharers invalidated by %d multidestination worm(s) in %d cycles\n",
		rec.Sharers, rec.Groups, rec.Latency())
	fmt.Printf("home-node messages: %d (UI-UA would need %d)\n", rec.HomeMsgs, 2*rec.Sharers)
	fmt.Printf("directory state: %v, owner node %d\n", m.DirEntry(block).State, m.DirEntry(block).Owner)
	// Output:
	// read  by node 13 ((5,1)):  198 cycles
	// read  by node 37 ((5,4)):  210 cycles
	// read  by node 53 ((5,6)):  234 cycles
	// read  by node 58 ((2,7)):  210 cycles
	// write by node  0 ((0,0)):  426 cycles
	// 4 sharers invalidated by 3 multidestination worm(s) in 252 cycles
	// home-node messages: 6 (UI-UA would need 8)
	// directory state: exclusive, owner node 0
}

// ExampleParams_consistency runs a producer-consumer kernel under sequential
// and release consistency, on the unicast baseline and on MI-MA. Release
// consistency hides write latency, and multidestination worms shrink what
// each round's invalidations cost.
func ExampleParams_consistency() {
	w := pingPong(16, 8, 6)
	fmt.Println("consistency scheme    exec cycles read misses speedup")
	var base float64
	for _, cons := range []coherence.Consistency{coherence.SequentialConsistency, coherence.ReleaseConsistency} {
		for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIMAEC} {
			p := coherence.DefaultParams(4, s)
			p.Consistency = cons
			res := apps.Run(coherence.NewMachine(p), w)
			if base == 0 {
				base = float64(res.Time)
			}
			fmt.Printf("%-11v %-8v %11d %12d %7.3f\n",
				cons, s, uint64(res.Time), res.ReadMisses, base/float64(res.Time))
		}
	}
	// Output:
	// consistency scheme    exec cycles read misses speedup
	// SC          UI-UA          88164         1070   1.000
	// SC          MI-MA-ec       79960         1070   1.103
	// RC          UI-UA          79152         1075   1.114
	// RC          MI-MA-ec       77730         1074   1.134
}

// pingPong builds a producer-consumer trace: each round the producer
// rewrites a set of blocks and every consumer re-reads them, with
// shared-memory barriers between phases.
func pingPong(procs, blocks, rounds int) apps.Workload {
	progs := make([]apps.Program, procs)
	counter := directory.BlockID(blocks)
	flag := counter + 1
	barrier := func() {
		for p := range progs {
			progs[p] = append(progs[p],
				apps.Op{Kind: apps.OpRead, Block: counter},
				apps.Op{Kind: apps.OpWrite, Block: counter},
				apps.Op{Kind: apps.OpBarrier})
		}
		progs[0] = append(progs[0], apps.Op{Kind: apps.OpWrite, Block: flag})
		for p := range progs {
			progs[p] = append(progs[p], apps.Op{Kind: apps.OpRead, Block: flag})
		}
	}
	for round := 0; round < rounds; round++ {
		for b := 0; b < blocks; b++ {
			progs[0] = append(progs[0], apps.Op{Kind: apps.OpWrite, Block: directory.BlockID(b)})
		}
		barrier()
		for p := 1; p < procs; p++ {
			for b := 0; b < blocks; b++ {
				progs[p] = append(progs[p], apps.Op{Kind: apps.OpRead, Block: directory.BlockID(b)})
			}
		}
		barrier()
	}
	return apps.Workload{Name: "ping-pong", Programs: progs,
		SharedBlocks: blocks + 2, BarrierCost: 50}
}

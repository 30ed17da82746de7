package coherence_test

import (
	"fmt"

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

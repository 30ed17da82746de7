package workload_test

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/grouping"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ExampleRunOp measures one write's full invalidation latency: a read
// shares the block, then the write invalidates it under UI-UA.
func ExampleRunOp() {
	m := coherence.NewMachine(coherence.DefaultParams(4, grouping.UIUA))
	node := func(x, y int) topology.NodeID { return m.Mesh.ID(topology.Coord{X: x, Y: y}) }
	const block = 3
	fmt.Printf("read:  %d cycles\n", workload.RunOp(m, false, node(2, 2), block))
	fmt.Printf("write: %d cycles\n", workload.RunOp(m, true, node(0, 0), block))
	// Output:
	// read:  174 cycles
	// write: 286 cycles
}

package coherence

import (
	"testing"

	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
)

// runBarrierEpisode has every node arrive (optionally staggered) and runs
// to completion, returning the set of resumed nodes.
func runBarrierEpisode(t *testing.T, m *Machine, stagger sim.Time) []bool {
	t.Helper()
	resumed := make([]bool, m.Mesh.Nodes())
	for n := 0; n < m.Mesh.Nodes(); n++ {
		n := n
		at := m.Engine.Now() + sim.Time(n)*stagger
		m.Engine.AtCall(at, sim.CallFunc, func() {
			m.BarrierArrive(topology.NodeID(n), func() { resumed[n] = true })
		}, 0)
	}
	m.Engine.Run()
	for n, ok := range resumed {
		if !ok {
			t.Fatalf("node %d never released (outstanding=%d)", n, m.Net.Outstanding())
		}
	}
	if !m.Quiesced() {
		t.Fatal("traffic outstanding after barrier")
	}
	return resumed
}

func TestWormBarrierSingleEpisode(t *testing.T) {
	m := newM(t, 4, grouping.MIMAEC)
	runBarrierEpisode(t, m, 0)
	if m.BarrierEpisodes() != 1 {
		t.Fatalf("episodes = %d, want 1", m.BarrierEpisodes())
	}
	if m.Metrics.BarrierLatency.N() != 1 {
		t.Fatal("barrier latency not sampled")
	}
}

func TestWormBarrierManyEpisodes(t *testing.T) {
	m := newM(t, 4, grouping.MIMAEC)
	for ep := 0; ep < 10; ep++ {
		runBarrierEpisode(t, m, sim.Time(ep%3)*7)
	}
	if m.BarrierEpisodes() != 10 {
		t.Fatalf("episodes = %d, want 10", m.BarrierEpisodes())
	}
}

func TestWormBarrierHoldsBackEarlyArrivals(t *testing.T) {
	// No node may pass the barrier before the last node arrives.
	m := newM(t, 4, grouping.MIMAEC)
	released := 0
	last := topology.NodeID(m.Mesh.Nodes() - 1)
	for n := 0; n < m.Mesh.Nodes()-1; n++ {
		m.BarrierArrive(topology.NodeID(n), func() { released++ })
	}
	m.Engine.Run()
	if released != 0 {
		t.Fatalf("%d nodes released before the last arrival", released)
	}
	m.BarrierArrive(last, func() { released++ })
	m.Engine.Run()
	if released != m.Mesh.Nodes() {
		t.Fatalf("released = %d, want %d", released, m.Mesh.Nodes())
	}
}

func TestWormBarrierPipelinedEpisodes(t *testing.T) {
	// Nodes immediately re-arrive on release (maximum episode overlap);
	// the release-time rollover must keep transactions straight.
	m := newM(t, 4, grouping.MIMAEC)
	const episodes = 8
	remaining := m.Mesh.Nodes()
	var arrive func(n topology.NodeID, left int)
	arrive = func(n topology.NodeID, left int) {
		m.BarrierArrive(n, func() {
			if left > 1 {
				arrive(n, left-1)
				return
			}
			remaining--
		})
	}
	for n := 0; n < m.Mesh.Nodes(); n++ {
		arrive(topology.NodeID(n), episodes)
	}
	m.Engine.Run()
	if remaining != 0 {
		t.Fatalf("%d nodes stuck (outstanding=%d)", remaining, m.Net.Outstanding())
	}
	if m.BarrierEpisodes() != episodes {
		t.Fatalf("episodes = %d, want %d", m.BarrierEpisodes(), episodes)
	}
}

func TestWormBarrierStaggeredLatency(t *testing.T) {
	// The sampled latency measures first-arrival to release: with a long
	// straggler it must cover at least the straggle window.
	m := newM(t, 4, grouping.MIMAEC)
	runBarrierEpisode(t, m, 50)
	lat := m.Metrics.BarrierLatency.Mean()
	if lat < 50*float64(m.Mesh.Nodes()-1) {
		t.Fatalf("latency %v shorter than the straggle window", lat)
	}
}

func TestWormBarrierRectangular(t *testing.T) {
	p := DefaultParams(0, grouping.MIMAEC)
	p.MeshWidth, p.MeshHeight = 6, 3
	m := NewMachine(p)
	runBarrierEpisode(t, m, 3)
	if m.BarrierEpisodes() != 1 {
		t.Fatal("rectangular barrier failed")
	}
}

func TestWormBarrierScalesBetterThanSharedMemory(t *testing.T) {
	// Episode latency: worm barrier vs a shared-memory sense-reversing
	// barrier (counter increments + flag broadcast) on the same machine.
	wormLat := func(k int) float64 {
		m := newM(t, k, grouping.MIMAEC)
		runBarrierEpisode(t, m, 0)
		runBarrierEpisode(t, m, 0) // steady state (setup amortized)
		return m.Metrics.BarrierLatency.Percentile(100)
	}
	smLat := func(k int) float64 {
		m := newM(t, k, grouping.MIMAEC)
		nodes := m.Mesh.Nodes()
		// counter increments: read+write per node, then flag write + reads.
		start := m.Engine.Now()
		for n := 0; n < nodes; n++ {
			doOp(t, m, false, topology.NodeID(n), 1000)
			doOp(t, m, true, topology.NodeID(n), 1000)
		}
		doOp(t, m, true, 0, 1001)
		for n := 0; n < nodes; n++ {
			doOp(t, m, false, topology.NodeID(n), 1001)
		}
		return float64(m.Engine.Now() - start)
	}
	for _, k := range []int{4, 8} {
		w, s := wormLat(k), smLat(k)
		if w >= s/2 {
			t.Fatalf("k=%d: worm barrier %v not well below SM barrier %v", k, w, s)
		}
	}
}

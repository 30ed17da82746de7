package apps

import (
	"repro/internal/directory"
	"repro/internal/sim"
)

// JacobiConfig configures the 2-D Jacobi stencil workload (extension): an
// Ocean-style iterative grid solver with a block decomposition, whose
// sharing is strictly nearest-neighbor — each processor reads only the
// boundary rows/columns of its four neighbors. It is the natural negative
// control for multidestination invalidation: invalidation sizes are 1-2
// sharers, so grouped worms have almost nothing to group.
type JacobiConfig struct {
	// N is the grid dimension (default 64).
	N int
	// Procs is the processor count, arranged as a sqrt(P) x sqrt(P) grid
	// of subdomains (default 16; must be a perfect square).
	Procs int
	// Iterations is the number of sweeps (default 8).
	Iterations int
	// LinesPerEdge is how many coherence blocks one subdomain boundary
	// edge occupies (default 2).
	LinesPerEdge int
	// SweepCost is the compute time per interior sweep (default 4 cycles
	// per grid point owned).
	SweepCost sim.Time
}

func (c *JacobiConfig) defaults() {
	if c.N == 0 {
		c.N = 64
	}
	if c.Procs == 0 {
		c.Procs = PublishedProcs
	}
	if c.Iterations == 0 {
		c.Iterations = 8
	}
	if c.LinesPerEdge == 0 {
		c.LinesPerEdge = 2
	}
	if c.SweepCost == 0 {
		c.SweepCost = 4
	}
}

// Jacobi generates the stencil workload. Each processor owns a square
// subdomain; per iteration it reads its four neighbors' facing boundary
// edges, computes its sweep, and rewrites its own four boundary edges
// (invalidating the one or two neighbors caching each edge).
func Jacobi(cfg JacobiConfig) Workload {
	cfg.defaults()
	side := 1
	for side*side < cfg.Procs {
		side++
	}
	if side*side != cfg.Procs {
		panic("apps: Jacobi needs a perfect-square processor count")
	}
	pointsPer := (cfg.N / side) * (cfg.N / side)

	// Block layout: each processor owns 4 edges (N, S, E, W), each
	// LinesPerEdge coherence blocks.
	edge := func(p, e int) directory.BlockID {
		return directory.BlockID((p*4 + e) * cfg.LinesPerEdge)
	}
	const (
		edgeN = 0
		edgeS = 1
		edgeE = 2
		edgeW = 3
	)
	procAt := func(px, py int) int { return py*side + px }
	b := newBuilder(cfg.Procs, edge(cfg.Procs, 0))
	readEdge := func(p, owner, e int) { b.refs(p, OpRead, edge(owner, e), cfg.LinesPerEdge) }

	for it := 0; it < cfg.Iterations; it++ {
		b.barrier()
		// Read phase: each processor reads the facing edges of its four
		// neighbors (grid boundary subdomains have fewer).
		for py := 0; py < side; py++ {
			for px := 0; px < side; px++ {
				p := procAt(px, py)
				if py+1 < side {
					readEdge(p, procAt(px, py+1), edgeS)
				}
				if py > 0 {
					readEdge(p, procAt(px, py-1), edgeN)
				}
				if px+1 < side {
					readEdge(p, procAt(px+1, py), edgeW)
				}
				if px > 0 {
					readEdge(p, procAt(px-1, py), edgeE)
				}
				b.compute(p, sim.Time(pointsPer)*cfg.SweepCost)
			}
		}
		b.barrier()
		// Write phase: each processor rewrites its own boundary edges.
		for p := 0; p < cfg.Procs; p++ {
			for e := 0; e < 4; e++ {
				b.refs(p, OpWrite, edge(p, e), cfg.LinesPerEdge)
			}
		}
	}
	b.barrier()
	return b.workload("Jacobi", cfg.Procs*4*cfg.LinesPerEdge)
}

package apps

import (
	"repro/internal/directory"
	"repro/internal/sim"
)

// APSPConfig configures the All Pairs Shortest Path workload
// (Floyd-Warshall with row-block decomposition), the paper's third
// application.
type APSPConfig struct {
	// Vertices is the graph size (default 64).
	Vertices int
	// Procs is the processor count; rows are block-distributed (default 16).
	Procs int
	// LinesPerRow is how many coherence blocks hold one distance-matrix
	// row (default: ceil(4*Vertices/32), i.e. 32-bit distances in 32-byte
	// lines).
	LinesPerRow int
	// RelaxCost is the compute time charged per row relaxation (default
	// 2 cycles per vertex).
	RelaxCost sim.Time
	// Seed generates the random graph (default 1).
	Seed uint64
}

func (c *APSPConfig) defaults() {
	if c.Vertices == 0 {
		c.Vertices = 64
	}
	if c.Procs == 0 {
		c.Procs = PublishedProcs
	}
	if c.LinesPerRow == 0 {
		c.LinesPerRow = (4*c.Vertices + 31) / 32
	}
	if c.RelaxCost == 0 {
		c.RelaxCost = sim.Time(2 * c.Vertices)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// APSP generates the Floyd-Warshall workload. At step k every processor
// reads pivot row k — making its owner's next write to that row invalidate
// copies at every processor, the d ~ P broadcast-sharing pattern that
// benefits most from multidestination invalidation — and relaxes its own
// rows against it.
//
// The generator runs the real algorithm on a random weighted graph; a row
// is only rewritten (and its readers only invalidated) when a relaxation
// actually changed it, so the trace reflects true data-dependent sharing.
func APSP(cfg APSPConfig) Workload {
	cfg.defaults()
	n := cfg.Vertices
	rng := sim.NewRNG(cfg.Seed)
	const inf = 1 << 30
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			switch {
			case i == j:
				dist[i][j] = 0
			case rng.Float64() < 0.25:
				dist[i][j] = 1 + rng.Intn(100)
			default:
				dist[i][j] = inf
			}
		}
	}
	rowsPer := (n + cfg.Procs - 1) / cfg.Procs
	row := func(r int) directory.BlockID { return directory.BlockID(r * cfg.LinesPerRow) }
	b := newBuilder(cfg.Procs, row(n))
	for k := 0; k < n; k++ {
		b.barrier()
		for p := 0; p < cfg.Procs; p++ {
			b.refs(p, OpRead, row(k), cfg.LinesPerRow) // pivot row: read by every processor
			for r := p * rowsPer; r < (p+1)*rowsPer && r < n; r++ {
				b.refs(p, OpRead, row(r), cfg.LinesPerRow)
				changed := false
				if dist[r][k] < inf {
					for j := 0; j < n; j++ {
						if dist[k][j] < inf && dist[r][k]+dist[k][j] < dist[r][j] {
							dist[r][j] = dist[r][k] + dist[k][j]
							changed = true
						}
					}
				}
				b.compute(p, cfg.RelaxCost)
				if changed {
					b.refs(p, OpWrite, row(r), cfg.LinesPerRow)
				}
			}
		}
	}
	b.barrier()
	return b.workload("APSP", n*cfg.LinesPerRow)
}

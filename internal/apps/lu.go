package apps

import (
	"repro/internal/directory"
	"repro/internal/sim"
)

// LUConfig configures the blocked LU decomposition workload (SPLASH-2
// kernel). The paper simulates a 128x128 matrix with 8x8 blocks.
type LUConfig struct {
	// N is the matrix dimension (default 128).
	N int
	// BlockSize is the elimination block size (default 8).
	BlockSize int
	// Procs is the processor count; blocks are 2-D scatter (cyclic)
	// decomposed over a sqrt(P) x sqrt(P) processor grid (default 16).
	Procs int
	// LinesPerBlock is how many coherence blocks one matrix block maps to.
	// Every line of a matrix block has identical sharers, so this scales
	// reference counts without changing invalidation shapes (default 2;
	// an 8x8 block of doubles is physically 16 32-byte lines).
	LinesPerBlock int
	// FlopCost is the compute time charged per block operation (default
	// 64 cycles per 8x8 daxpy-ish update).
	FlopCost sim.Time
}

func (c *LUConfig) defaults() {
	if c.N == 0 {
		c.N = 128
	}
	if c.BlockSize == 0 {
		c.BlockSize = 8
	}
	if c.Procs == 0 {
		c.Procs = PublishedProcs
	}
	if c.LinesPerBlock == 0 {
		c.LinesPerBlock = 2
	}
	if c.FlopCost == 0 {
		c.FlopCost = 64
	}
}

// LU generates the blocked LU workload with the SPLASH-2 structure: at
// step k the owner of the diagonal block factors it; the owners of the
// perimeter blocks in row k and column k update them against the diagonal
// block; the owners of interior blocks update them against their row and
// column perimeter blocks. Barriers separate the three phases of each
// step. Perimeter blocks written at step k are read by up to a full grid
// row/column of processors at the same step, and the diagonal block by all
// perimeter owners — the multi-sharer blocks whose later rewrites drive
// invalidations.
func LU(cfg LUConfig) Workload {
	cfg.defaults()
	nb := cfg.N / cfg.BlockSize // block grid dimension
	// Processor grid pr x pc (pr*pc = Procs), as square as possible.
	pr := 1
	for f := 1; f*f <= cfg.Procs; f++ {
		if cfg.Procs%f == 0 {
			pr = f
		}
	}
	pc := cfg.Procs / pr
	owner := func(i, j int) int { return (i%pr)*pc + (j % pc) }
	// Matrix block (i,j) -> its first coherence block.
	blk := func(i, j int) directory.BlockID {
		return directory.BlockID((i*nb + j) * cfg.LinesPerBlock)
	}
	b := newBuilder(cfg.Procs, blk(nb, 0))
	read := func(p, i, j int) { b.refs(p, OpRead, blk(i, j), cfg.LinesPerBlock) }
	write := func(p, i, j int) { b.refs(p, OpWrite, blk(i, j), cfg.LinesPerBlock) }

	for k := 0; k < nb; k++ {
		// Phase 1: factor diagonal block.
		dOwner := owner(k, k)
		read(dOwner, k, k)
		b.compute(dOwner, cfg.FlopCost*2)
		write(dOwner, k, k)
		b.barrier()
		// Phase 2: perimeter updates read the diagonal block.
		for j := k + 1; j < nb; j++ {
			p := owner(k, j)
			read(p, k, k)
			read(p, k, j)
			b.compute(p, cfg.FlopCost)
			write(p, k, j)
		}
		for i := k + 1; i < nb; i++ {
			p := owner(i, k)
			read(p, k, k)
			read(p, i, k)
			b.compute(p, cfg.FlopCost)
			write(p, i, k)
		}
		b.barrier()
		// Phase 3: interior updates read their row and column perimeters.
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				p := owner(i, j)
				read(p, i, k)
				read(p, k, j)
				read(p, i, j)
				b.compute(p, cfg.FlopCost)
				write(p, i, j)
			}
		}
		b.barrier()
	}
	return b.workload("LU", nb*nb*cfg.LinesPerBlock)
}

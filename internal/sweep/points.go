package sweep

import (
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/workload"
)

// GridConfig describes a full cross-product sweep: every scheme at every
// mesh size at every sharer count.
type GridConfig struct {
	// Ks are the mesh dimensions (k x k) to sweep.
	Ks []int
	// Schemes are the invalidation frameworks to sweep.
	Schemes []grouping.Scheme
	// Ds are the sharer counts to sweep.
	Ds []int
	// Pattern places the sharers (default random).
	Pattern workload.Pattern
	// Trials is the number of transactions per point (default 10).
	Trials int
	// BaseSeed is the sweep's base seed; every point's RNG seed is derived
	// from it and the point index via sim.DeriveSeed, which is what keeps a
	// resumed or parallel sweep on exactly the random streams of the
	// sequential run.
	BaseSeed uint64
	// Chaos additionally derives a per-point chaos-schedule seed (offset so
	// it never collides with the placement seed stream).
	Chaos bool
}

// chaosStreamOffset separates the chaos-seed derivation stream from the
// placement-seed stream of the same base seed.
const chaosStreamOffset = 0x5EED0FCA05

// Grid expands the cross product into runnable points, ordered K-major,
// then scheme, then D, with seeds derived from (BaseSeed, index).
func Grid(cfg GridConfig) []Point {
	trials := cfg.Trials
	if trials == 0 {
		trials = 10
	}
	var pts []Point
	for _, k := range cfg.Ks {
		for _, s := range cfg.Schemes {
			for _, d := range cfg.Ds {
				idx := len(pts)
				p := Point{
					Index: idx, K: k, Scheme: s, D: d,
					Pattern: cfg.Pattern, Trials: trials,
					Seed: sim.DeriveSeed(cfg.BaseSeed, uint64(idx)),
				}
				if cfg.Chaos {
					p.ChaosSeed = sim.DeriveSeed(cfg.BaseSeed+chaosStreamOffset, uint64(idx))
				}
				pts = append(pts, p)
			}
		}
	}
	return pts
}

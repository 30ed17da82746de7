package workload

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// HotSpotConfig configures the concurrent-invalidation experiment: several
// writers simultaneously write distinct blocks that all share one home
// node, each block held by D sharers, stressing the home's controller
// occupancy and the links around it (the hot-spot effect [47]).
type HotSpotConfig struct {
	// K is the mesh dimension.
	K int
	// Scheme is the framework under test.
	Scheme grouping.Scheme
	// D is the sharer count per block.
	D int
	// Writers is the number of concurrent invalidation transactions.
	Writers int
	// OverlapSharers makes every block share one sharer set, so the
	// concurrent reserve worms contend for the same router interfaces'
	// i-ack buffers and consumption channels (widely shared data, the
	// pattern that stresses those resources).
	OverlapSharers bool
	// DistinctHomes homes each block at a different node instead of one
	// common home. A single home's injection port serializes its worms;
	// distinct homes let transactions genuinely overlap at the sharers,
	// which is what exercises the i-ack buffer depth.
	DistinctHomes bool
	// BusyJitter, when nonzero, occupies each sharer's protocol controller
	// for a random duration in [0, BusyJitter) at burst start, modelling
	// heterogeneous processor load. Slow sharers post their i-acks late,
	// so i-gather worms catch up to unposted acks — the chained-waiting
	// scenario where VCT deferred delivery earns its keep.
	BusyJitter sim.Time
	// Seed controls placement (default 1).
	Seed uint64
	// Recorder, when non-nil, attaches cycle-level event tracing to the
	// machine; results are identical to an untraced run.
	Recorder *trace.Recorder
	// Tune, when non-nil, is the machine variant to build instead of
	// DefaultParams.
	Tune *coherence.Variant `json:"tune,omitempty"`
}

// HotSpotResult reports the concurrent-invalidation measurements.
type HotSpotResult struct {
	// Latency samples each transaction's invalidation latency.
	Latency sim.Sample
	// Makespan is the time from the simultaneous issue until the last
	// write grant.
	Makespan sim.Time
	// HomeOccupancy is the busy time of the home controllers during the
	// burst (summed over distinct homes).
	HomeOccupancy sim.Time
	// GatherWaits counts i-gather worms that found an ack not yet posted.
	GatherWaits uint64
}

// RunHotSpot executes the experiment and returns its measurements. It
// panics unless 1 <= Writers <= K*K - D - 1.
func RunHotSpot(cfg HotSpotConfig) HotSpotResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Writers < 1 || cfg.Writers+cfg.D+1 > cfg.K*cfg.K {
		// Each writer is a distinct node that is neither its block's home
		// nor one of its sharers; past this bound the draw never ends.
		panic(fmt.Sprintf("workload: a hot-spot burst of %d writers with %d sharers does not fit a %dx%d mesh (1 to %d writers)",
			cfg.Writers, cfg.D, cfg.K, cfg.K, cfg.K*cfg.K-cfg.D-1))
	}
	p := coherence.DefaultParams(cfg.K, cfg.Scheme)
	cfg.Tune.Apply(&p)
	m := coherence.NewMachine(p)
	m.AttachTrace(cfg.Recorder)
	rng := sim.NewRNG(cfg.Seed)
	center := m.Mesh.ID(topology.Coord{X: cfg.K / 2, Y: cfg.K / 2})

	// One block per writer. By default every block is homed at the mesh
	// center (the hot-spot); with DistinctHomes each block gets its own
	// home node.
	homes := make([]topology.NodeID, cfg.Writers)
	blocks := make([]directory.BlockID, cfg.Writers)
	writers := make([]topology.NodeID, cfg.Writers)
	usedHome := map[topology.NodeID]bool{}
	for i := range blocks {
		homes[i] = center
		if cfg.DistinctHomes {
			for {
				h := topology.NodeID(rng.Intn(m.Mesh.Nodes()))
				if !usedHome[h] {
					usedHome[h] = true
					homes[i] = h
					break
				}
			}
		}
		blocks[i] = directory.BlockID(uint64(homes[i]) + uint64(i+1)*uint64(m.Mesh.Nodes()))
		if m.Home(blocks[i]) != homes[i] {
			panic("workload: hot-spot block homing broken")
		}
	}
	// Install sharers sequentially (cold phase, unmeasured).
	var common []topology.NodeID
	if cfg.OverlapSharers {
		common = PlaceSharers(m.Mesh, rng, center, cfg.D, RandomPlacement)
	}
	usedWriter := map[topology.NodeID]bool{}
	ops := newOpRunner(m)
	var pl placer
	for i, b := range blocks {
		sharers := common
		if sharers == nil {
			sharers = PlaceSharers(m.Mesh, rng, homes[i], cfg.D, RandomPlacement)
		}
		for _, s := range sharers {
			// A home may read its own block too; the protocol invalidates
			// that copy locally during the transaction.
			ops.installSharer(s, b)
		}
		// Writers must be distinct nodes: each processor supports a single
		// outstanding operation (sequential consistency).
		for {
			w := pl.writer(m.Mesh, rng, homes[i], sharers)
			if !usedWriter[w] {
				usedWriter[w] = true
				writers[i] = w
				break
			}
		}
	}

	// Burst phase: all writers issue at the same cycle. A recording covers
	// only the burst — the cold phase is setup, not measurement — so drop
	// the warm-up events; the fabric is quiesced here, so no hold or span
	// is cut mid-flight.
	if cfg.Recorder != nil {
		cfg.Recorder.Reset()
	}
	if cfg.BusyJitter > 0 {
		busy := map[topology.NodeID]bool{}
		all := common
		if all == nil {
			for n := 0; n < m.Mesh.Nodes(); n++ {
				all = append(all, topology.NodeID(n))
			}
		}
		for _, s := range all {
			if !busy[s] {
				busy[s] = true
				m.Busy(s, sim.Time(rng.Intn(int(cfg.BusyJitter))))
			}
		}
	}
	start := m.Engine.Now()
	gwBefore := m.Net.Stats().GatherWait
	occBefore := make([]sim.Time, cfg.Writers)
	for i, h := range homes {
		occBefore[i] = m.Metrics.Occupancy[h]
	}
	nInvals := len(m.Metrics.Invals)
	remaining := cfg.Writers
	for i := range blocks {
		i := i
		m.Write(writers[i], blocks[i], func() { remaining-- })
	}
	m.Engine.Run()
	if w := m.Net.Wedged(remaining); w != nil {
		panic(w)
	}
	res := HotSpotResult{
		Makespan:    m.Engine.Now() - start,
		GatherWaits: m.Net.Stats().GatherWait - gwBefore,
	}
	seen := map[topology.NodeID]bool{}
	for i, h := range homes {
		if !seen[h] {
			seen[h] = true
			res.HomeOccupancy += m.Metrics.Occupancy[h] - occBefore[i]
		}
	}
	for _, rec := range m.Metrics.Invals[nInvals:] {
		res.Latency.AddTime(rec.Latency())
	}
	return res
}

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

// MissKind enumerates the memory operation latencies of the paper's
// Table 4 ("derived typical memory miss latencies in 5 ns cycles").
type MissKind int

const (
	// ReadHit: read satisfied by the local cache.
	ReadHit MissKind = iota
	// ReadMissLocal: read miss on a block homed at the requesting node.
	ReadMissLocal
	// ReadMissNeighborClean: read miss, clean block homed one hop away
	// (the case Table 5 breaks down).
	ReadMissNeighborClean
	// ReadMissRemoteClean: read miss, clean block homed across the mesh.
	ReadMissRemoteClean
	// ReadMissRemoteDirty: read miss on a block dirty in a third node.
	ReadMissRemoteDirty
	// WriteMissUncached: write miss on an uncached block across the mesh.
	WriteMissUncached
	// UpgradeNoSharers: write upgrade when the writer is the only sharer.
	UpgradeNoSharers
	// WriteMissSharers4: write miss on a block with 4 remote sharers
	// (one full invalidation transaction).
	WriteMissSharers4
)

var missNames = [...]string{
	"read hit",
	"read miss, local home",
	"read miss, neighbor home, clean",
	"read miss, remote home, clean",
	"read miss, remote home, dirty",
	"write miss, uncached, remote home",
	"write upgrade, no other sharers",
	"write miss, 4 sharers",
}

func (k MissKind) String() string {
	if int(k) < len(missNames) {
		return missNames[k]
	}
	return fmt.Sprintf("miss(%d)", int(k))
}

// AllMissKinds lists Table 4's rows in order.
var AllMissKinds = []MissKind{
	ReadHit, ReadMissLocal, ReadMissNeighborClean, ReadMissRemoteClean,
	ReadMissRemoteDirty, WriteMissUncached, UpgradeNoSharers, WriteMissSharers4,
}

// MeasureMiss builds a fresh machine, arranges the scenario for kind, and
// returns the measured processor-visible latency in cycles.
func MeasureMiss(p coherence.Params, kind MissKind) sim.Time {
	return MeasureMissTraced(p, kind, nil)
}

// MeasureMissTraced is MeasureMiss with cycle-level event tracing attached
// (rec may be nil). The recording covers the scenario's warm-up operations
// as well as the measured one; the measured op is always the last retired
// operation in the trace. Tracing never perturbs the measurement.
func MeasureMissTraced(p coherence.Params, kind MissKind, rec *trace.Recorder) sim.Time {
	m := coherence.NewMachine(p)
	m.AttachTrace(rec)
	k := p.MeshSize
	requester := m.Mesh.ID(topology.Coord{X: 1, Y: 1})
	// Block homed at node 0 = (0,0); adjust per scenario.
	blockHomedAt := func(n topology.NodeID) directory.BlockID {
		return directory.BlockID(uint64(n) + uint64(m.Mesh.Nodes()))
	}
	var b directory.BlockID
	switch kind {
	case ReadHit:
		b = blockHomedAt(m.Mesh.ID(topology.Coord{X: k - 1, Y: k - 1}))
		RunOp(m, false, requester, b)
		return measureOp(m, false, requester, b)
	case ReadMissLocal:
		b = blockHomedAt(requester)
		return measureOp(m, false, requester, b)
	case ReadMissNeighborClean:
		b = blockHomedAt(m.Mesh.ID(topology.Coord{X: 2, Y: 1}))
		return measureOp(m, false, requester, b)
	case ReadMissRemoteClean:
		b = blockHomedAt(m.Mesh.ID(topology.Coord{X: k - 1, Y: k - 1}))
		return measureOp(m, false, requester, b)
	case ReadMissRemoteDirty:
		home := m.Mesh.ID(topology.Coord{X: k - 1, Y: k - 1})
		owner := m.Mesh.ID(topology.Coord{X: k - 1, Y: 0})
		b = blockHomedAt(home)
		RunOp(m, true, owner, b)
		return measureOp(m, false, requester, b)
	case WriteMissUncached:
		b = blockHomedAt(m.Mesh.ID(topology.Coord{X: k - 1, Y: k - 1}))
		return measureOp(m, true, requester, b)
	case UpgradeNoSharers:
		b = blockHomedAt(m.Mesh.ID(topology.Coord{X: k - 1, Y: k - 1}))
		RunOp(m, false, requester, b)
		return measureOp(m, true, requester, b)
	case WriteMissSharers4:
		home := m.Mesh.ID(topology.Coord{X: k - 1, Y: k - 1})
		b = blockHomedAt(home)
		for _, c := range []topology.Coord{{X: 0, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: k - 1}, {X: k - 2, Y: 1}} {
			n := m.Mesh.ID(c)
			if n == requester || n == home {
				panic("workload: sharer collides with requester or home")
			}
			newOpRunner(m).installSharer(n, b)
		}
		return measureOp(m, true, requester, b)
	}
	panic("workload: unknown miss kind")
}

// measureOp runs one operation and returns its latency.
func measureOp(m *coherence.Machine, write bool, n topology.NodeID, b directory.BlockID) sim.Time {
	start := m.Engine.Now()
	var end sim.Time
	fn := func() { end = m.Engine.Now() }
	if write {
		m.Write(n, b, fn)
	} else {
		m.Read(n, b, fn)
	}
	m.Engine.Run()
	if end == 0 && start != 0 {
		panic("workload: measured op did not complete")
	}
	return end - start
}

// BreakdownRow is one component of the Table 5 clean neighbor read-miss
// latency breakdown.
type BreakdownRow struct {
	Component string
	Cycles    sim.Time
}

// ReadMissBreakdown returns the analytic component breakdown of a clean
// read miss to a neighboring home (Table 5), plus the measured end-to-end
// latency, which must equal the component sum — the sum is asserted by the
// test suite, mirroring how the paper validated its simulator against DASH
// and Alewife measurements.
func ReadMissBreakdown(p coherence.Params) (rows []BreakdownRow, total sim.Time) {
	ctrl := (p.ControlBytes + p.FlitBytes - 1) / p.FlitBytes
	data := (p.ControlBytes + p.BlockBytes + p.FlitBytes - 1) / p.FlitBytes
	netTime := func(hops, payloadFlits int) sim.Time {
		l := sim.Time(p.Net.HeaderFlits(1) + payloadFlits)
		return p.Net.InjectDelay +
			sim.Time(hops)*(p.Net.RouterDelay+p.Net.FlitCycles) +
			p.Net.RouterDelay + l*p.Net.FlitCycles
	}
	rows = []BreakdownRow{
		{"cache lookup (miss detect)", p.CacheAccess},
		{"request send occupancy", p.SendOccupancy},
		{"request network (1 hop)", netTime(1, ctrl)},
		{"home receive + directory lookup", p.RecvOccupancy + p.DirLookup},
		{"memory access + reply send", p.MemAccess + p.SendOccupancy},
		{"reply network (1 hop, data)", netTime(1, data)},
		{"requester receive + cache fill", p.RecvOccupancy + p.CacheAccess},
	}
	for _, r := range rows {
		total += r.Cycles
	}
	return rows, total
}

// DefaultMicroParams returns the parameter set the micro measurements use:
// the paper's defaults on an 8x8 mesh (the scheme is irrelevant for these
// single-transaction scenarios except WriteMissSharers4).
func DefaultMicroParams(scheme grouping.Scheme) coherence.Params {
	return coherence.DefaultParams(8, scheme)
}

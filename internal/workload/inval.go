// Package workload provides the synthetic drivers of the paper's
// evaluation: invalidation-pattern experiments (latency, occupancy and
// traffic versus sharer count, placement and system size), the memory-miss
// micro-measurements behind Tables 4 and 5, and the hot-spot driver with
// concurrent invalidation transactions.
package workload

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Pattern selects how sharers are placed around the home node.
type Pattern int

const (
	// RandomPlacement scatters sharers uniformly over the mesh.
	RandomPlacement Pattern = iota
	// ClusteredPlacement picks the d nodes nearest the home.
	ClusteredPlacement
	// ColumnPlacement stacks sharers in as few columns as possible (the
	// best case for column-grouped worms).
	ColumnPlacement
	// RowPlacement spreads sharers along the home row and its neighbors
	// (the worst case for column grouping).
	RowPlacement
	// DiagonalPlacement puts sharers on the diagonal running northeast
	// from the home (one worm under planar-adaptive routing, one worm per
	// sharer under e-cube).
	DiagonalPlacement
)

var patternNames = [...]string{"random", "clustered", "column", "row", "diagonal"}

func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// ParsePattern returns the placement with the given name (as produced by
// String); the serving API and CLIs accept pattern names, not enum values.
func ParsePattern(name string) (Pattern, error) {
	for i, n := range patternNames {
		if n == name {
			return Pattern(i), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown placement pattern %q", name)
}

// UnmarshalJSON decodes a placement from its integer or its name (String's);
// encoding stays the integer, so point fingerprints do not change.
func (p *Pattern) UnmarshalJSON(b []byte) (err error) {
	var name string
	if err = json.Unmarshal(b, (*int)(p)); err != nil && json.Unmarshal(b, &name) == nil {
		*p, err = ParsePattern(name)
	}
	return err
}

// InvalConfig configures an invalidation-pattern experiment.
type InvalConfig struct {
	// K is the mesh dimension (k x k).
	K int
	// Scheme is the invalidation framework under test.
	Scheme grouping.Scheme
	// D is the number of sharers to invalidate.
	D int
	// Pattern places the sharers.
	Pattern Pattern
	// Trials is the number of independent transactions to run (default 10).
	Trials int
	// Seed makes placement reproducible (default 1).
	Seed uint64
	// Home, when non-nil, homes every trial's block at this node instead of
	// the mesh center — the per-home placement studies use it.
	Home *topology.NodeID
	// ChaosSeed, when nonzero, runs the machine with chaos event ordering
	// (sim.Engine.Chaos): same-time events fire in seeded random order
	// instead of schedule order. Per-seed runs stay deterministic.
	ChaosSeed uint64
	// Faults, when non-nil and enabled, injects deterministic faults into
	// the fabric and arms the protocol recovery machinery (i-ack timeout
	// retries with default settings) plus the liveness watchdog. Nil runs
	// the fault-free simulator untouched.
	Faults *faults.Config
	// Recorder, when non-nil, attaches cycle-level event tracing to the
	// machine. Recording is observational only: a traced run produces
	// results identical to an untraced one.
	Recorder *trace.Recorder
	// Tune, when non-nil, is the machine variant to build instead of
	// DefaultParams.
	Tune *coherence.Variant `json:"tune,omitempty"`
	// Interrupt, when set, is polled before each trial; returning true stops
	// the experiment early. The result then covers only the completed trials
	// (Completed < Trials) — the sweep engine's per-point timeout and
	// cancellation hook.
	Interrupt func() bool
}

// InvalResult aggregates an invalidation-pattern experiment.
type InvalResult struct {
	// Latency samples per-transaction invalidation latency (cycles).
	Latency sim.Sample
	// HomeMsgs is the mean number of messages sent or received by the home
	// per transaction (the occupancy proxy).
	HomeMsgs float64
	// Groups is the mean number of request worms per transaction.
	Groups float64
	// FlitHops is the mean network flit-hops consumed per transaction: every
	// worm injected during the write, the writeReq/writeReply pair included
	// alongside the invalidation and acknowledgment traffic.
	FlitHops float64
	// Messages is the mean total protocol messages per transaction
	// (invalidation worms plus acknowledgments).
	Messages float64
	// Completed is the number of trials that actually ran (equals
	// InvalConfig.Trials unless Interrupt stopped the experiment early).
	Completed int
	// Retries is the mean number of recovery retries per transaction and
	// Drops the mean number of fault-killed worms per trial; both zero
	// without fault injection.
	Retries float64
	Drops   float64
	// Metrics is the machine's full collector, for callers that read more
	// than the means (sweep.RunPointDirect hands it back). A sharer
	// installed functionally (coherence.Machine.InstallSharer) leaves no
	// trace in it, so on a machine that installs every sharer ReadMiss is
	// empty and Occupancy and MsgsSent/MsgsRecv carry the measured writes
	// only. A machine that must simulate the set-up reads instead (faults,
	// chaos ordering, a recorder, bounded caches) counts them like any
	// other read miss.
	Metrics *metrics.Collector
	// EngineEvents is the machine's total fired-event count (the
	// benchmark's sim.events_per_txn is EngineEvents over Completed). It
	// excludes functionally installed sharers, which fire no event.
	EngineEvents uint64
}

// RunInval executes the experiment: for each trial it installs D sharers of
// a fresh block homed at the mesh center, issues one write, and records the
// invalidation transaction.
func RunInval(cfg InvalConfig) InvalResult {
	if cfg.Trials == 0 {
		cfg.Trials = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.D < 1 || cfg.D > cfg.K*cfg.K-2 {
		panic(fmt.Sprintf("workload: D=%d out of range for %dx%d mesh", cfg.D, cfg.K, cfg.K))
	}
	p := coherence.DefaultParams(cfg.K, cfg.Scheme)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		p.Recovery = coherence.DefaultRecovery()
		p.Fault = faults.New(*cfg.Faults)
	}
	cfg.Tune.Apply(&p)
	m := coherence.NewMachine(p)
	m.AttachTrace(cfg.Recorder)
	if cfg.ChaosSeed != 0 {
		m.Engine.Chaos(cfg.ChaosSeed)
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		// The liveness watchdog backstops the recovery machinery: the
		// interval sits far above the longest legitimate quiet stretch
		// (the capped exponential backoff tops out at Timeout<<6 cycles),
		// so a firing means a genuine wedge, reported with the full
		// network diagnosis instead of a hang.
		m.Net.StartWatchdog(p.Recovery.Timeout<<8, 3, nil)
	}
	rng := sim.NewRNG(cfg.Seed)
	home := m.Mesh.ID(topology.Coord{X: cfg.K / 2, Y: cfg.K / 2})
	if cfg.Home != nil {
		home = *cfg.Home
	}

	var res InvalResult
	ops := newOpRunner(m)
	var pl placer
	var homeMsgs, groups, flitHops, messages, retries, drops float64
	for trial := 0; trial < cfg.Trials; trial++ {
		if cfg.Interrupt != nil && cfg.Interrupt() {
			break
		}
		res.Completed = trial + 1
		block := directory.BlockID(uint64(home) + uint64(trial+1)*uint64(m.Mesh.Nodes()))
		if m.Home(block) != home {
			panic("workload: block homing arithmetic broken")
		}
		sharers := pl.sharers(m.Mesh, rng, home, cfg.D, cfg.Pattern)
		writer := pl.writer(m.Mesh, rng, home, sharers)

		for _, s := range sharers {
			ops.installSharer(s, block)
		}
		before := m.Net.Stats()
		nInvals := len(m.Metrics.Invals)
		ops.run(true, writer, block)
		after := m.Net.Stats()
		if len(m.Metrics.Invals) != nInvals+1 {
			panic("workload: write did not produce an invalidation transaction")
		}
		rec := m.Metrics.Invals[nInvals]
		res.Latency.AddTime(rec.Latency())
		homeMsgs += float64(rec.HomeMsgs)
		groups += float64(rec.Groups)
		acks := rec.HomeMsgs - rec.Groups
		messages += float64(rec.Groups + acks)
		retries += float64(rec.Retries)
		drops += float64(after.Dropped - before.Dropped)
		// Total flit-hops during the write: the writeReq/writeReply pair
		// plus the invalidation and acknowledgment traffic.
		flitHops += float64(after.FlitHops - before.FlitHops)
	}
	if n := float64(res.Completed); n > 0 {
		res.HomeMsgs = homeMsgs / n
		res.Groups = groups / n
		res.FlitHops = flitHops / n
		res.Messages = messages / n
		res.Retries = retries / n
		res.Drops = drops / n
	}
	res.Metrics = m.Metrics
	res.EngineEvents = m.Engine.Fired()
	return res
}

// RunOp drives one blocking operation to completion and returns the cycles
// it took. It panics, with the network's diagnosis, if the operation never
// completes or leaves traffic in flight.
func RunOp(m *coherence.Machine, write bool, n topology.NodeID, b directory.BlockID) sim.Time {
	return newOpRunner(m).run(write, n, b)
}

// opRunner drives blocking operations on one machine, one at a time. Its
// completion callback is bound once, so an operation allocates nothing.
type opRunner struct {
	m        *coherence.Machine
	finished bool
	end      sim.Time // when the last operation completed
	done     func()
}

func newOpRunner(m *coherence.Machine) *opRunner {
	r := &opRunner{m: m}
	r.done = func() { r.finished, r.end = true, m.Engine.Now() }
	return r
}

// run is RunOp on the runner's machine.
func (r *opRunner) run(write bool, n topology.NodeID, b directory.BlockID) sim.Time {
	m := r.m
	start := m.Engine.Now()
	r.finished = false
	if write {
		m.Write(n, b, r.done)
	} else {
		m.Read(n, b, r.done)
	}
	m.Engine.Run()
	if !r.finished {
		panic(fmt.Sprintf("workload: operation did not complete (deadlock? write=%v node=%d block=%d)\n%s",
			write, n, b, m.Net.Diagnose()))
	}
	if !m.Quiesced() {
		panic(fmt.Sprintf("workload: network traffic outstanding after operation (write=%v node=%d block=%d)\n%s",
			write, n, b, m.Net.Diagnose()))
	}
	return m.Engine.Now() - start
}

// latency is run returning the operation's issue-to-completion latency,
// which leaves out any traffic still in flight when it completes. It panics
// as run does if the operation never completes.
func (r *opRunner) latency(write bool, n topology.NodeID, b directory.BlockID) sim.Time {
	start := r.m.Engine.Now()
	r.run(write, n, b)
	return r.end - start
}

// installSharer makes n a sharer of b ahead of a measured operation: set-up,
// not measurement. The machine installs the state functionally when nothing
// could tell the difference (coherence.Machine.InstallSharer) and the read
// miss is simulated otherwise.
func (r *opRunner) installSharer(n topology.NodeID, b directory.BlockID) {
	if !r.m.InstallSharer(n, b) {
		r.run(false, n, b)
	}
}

// PlaceSharers returns d distinct sharer nodes (never the home) under the
// given placement pattern. RunInval draws each trial's sharers the same way
// from one RNG seeded with the config's Seed, so a fresh sim.NewRNG(Seed)
// here reproduces trial 1's placement.
func PlaceSharers(mesh *topology.Mesh, rng *sim.RNG, home topology.NodeID, d int, pat Pattern) []topology.NodeID {
	var pl placer
	return pl.sharers(mesh, rng, home, d, pat)
}

// placer draws trial placements into buffers it reuses from trial to
// trial: the random placement's permutation, the sharer list and the
// writer pick's node marks.
type placer struct {
	perm  []int
	nodes []topology.NodeID
	taken []bool
}

// sharers is PlaceSharers into the placer's buffer; the result is valid
// until the next call.
func (pl *placer) sharers(mesh *topology.Mesh, rng *sim.RNG, home topology.NodeID, d int, pat Pattern) []topology.NodeID {
	out := pl.nodes[:0]
	switch pat {
	case RandomPlacement:
		pl.perm = rng.SampleInto(pl.perm, mesh.Nodes()-1, d)
		for _, idx := range pl.perm {
			n := topology.NodeID(idx)
			if n >= home {
				n++
			}
			out = append(out, n)
		}
	case ClusteredPlacement:
		type cand struct {
			n    topology.NodeID
			dist int
		}
		var cands []cand
		for n := topology.NodeID(0); int(n) < mesh.Nodes(); n++ {
			if n != home {
				cands = append(cands, cand{n, mesh.Distance(home, n)})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].n < cands[j].n
		})
		for i := 0; i < d; i++ {
			out = append(out, cands[i].n)
		}
	case ColumnPlacement:
		hc := mesh.Coord(home)
		x := (hc.X + 2) % mesh.Width()
		for len(out) < d {
			for y := 0; y < mesh.Height() && len(out) < d; y++ {
				c := topology.Coord{X: x, Y: y}
				if n := mesh.ID(c); n != home {
					out = append(out, n)
				}
			}
			x = (x + 1) % mesh.Width()
			if x == hc.X {
				x = (x + 1) % mesh.Width()
			}
		}
	case RowPlacement:
		hc := mesh.Coord(home)
		y := hc.Y
		for len(out) < d {
			for x := 0; x < mesh.Width() && len(out) < d; x++ {
				c := topology.Coord{X: x, Y: y}
				if n := mesh.ID(c); n != home {
					out = append(out, n)
				}
			}
			y = (y + 1) % mesh.Height()
			if y == hc.Y {
				y = (y + 1) % mesh.Height()
			}
		}
	case DiagonalPlacement:
		hc := mesh.Coord(home)
		type cand struct {
			n                    topology.NodeID
			band, quadPref, dist int
		}
		var cands []cand
		for n := topology.NodeID(0); int(n) < mesh.Nodes(); n++ {
			if n == home {
				continue
			}
			c := mesh.Coord(n)
			dx, dy := c.X-hc.X, c.Y-hc.Y
			quad := 2
			if dx > 0 && dy > 0 {
				quad = 0 // northeast arm first: one planar-adaptive chain
			} else if dx < 0 && dy < 0 {
				quad = 1
			}
			cands = append(cands, cand{n: n, band: abs(dx - dy), quadPref: quad,
				dist: abs(dx) + abs(dy)})
		}
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if a.band != b.band {
				return a.band < b.band
			}
			if a.quadPref != b.quadPref {
				return a.quadPref < b.quadPref
			}
			if a.dist != b.dist {
				return a.dist < b.dist
			}
			return a.n < b.n
		})
		for i := 0; i < d; i++ {
			out = append(out, cands[i].n)
		}
	default:
		panic("workload: unknown pattern")
	}
	pl.nodes = out
	return out
}

// writer chooses a random node that is neither the home nor a sharer,
// redrawing until one is free.
func (pl *placer) writer(mesh *topology.Mesh, rng *sim.RNG, home topology.NodeID, sharers []topology.NodeID) topology.NodeID {
	if len(pl.taken) != mesh.Nodes() {
		pl.taken = make([]bool, mesh.Nodes())
	}
	pl.taken[home] = true
	for _, s := range sharers {
		pl.taken[s] = true
	}
	n := topology.NodeID(rng.Intn(mesh.Nodes()))
	for pl.taken[n] {
		n = topology.NodeID(rng.Intn(mesh.Nodes()))
	}
	pl.taken[home] = false
	for _, s := range sharers {
		pl.taken[s] = false
	}
	return n
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

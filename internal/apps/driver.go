// Package apps reproduces the paper's application evaluation (its Table 6
// workloads): Barnes-Hut from SPLASH-2 (128 bodies, 4 time steps), blocked
// LU decomposition from SPLASH-2 (128x128 matrix, 8x8 blocks) and All Pairs
// Shortest Path (Floyd-Warshall).
//
// The original SPLASH-2 C programs are re-implemented in Go as
// execution-driven-lite generators: the actual algorithm runs (real
// quadtree, real elimination order, real relaxations) and emits each
// processor's shared-memory reference stream, which the driver replays
// through the cycle-level DSM machine with barrier synchronization. The
// coherence-relevant structure — which processors share which blocks, and
// the invalidation patterns writes produce — is determined by the
// algorithms and is preserved exactly; see DESIGN.md section 6.
package apps

import (
	"fmt"
	"slices"

	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/sim"
	"repro/internal/topology"
)

// OpKind is the kind of one trace operation.
type OpKind int

const (
	// OpRead is a shared read of Block.
	OpRead OpKind = iota
	// OpWrite is a shared write of Block.
	OpWrite
	// OpCompute spends Cycles of local computation.
	OpCompute
	// OpBarrier waits until every processor reaches its barrier.
	OpBarrier
)

// Op is one step of a processor's program.
type Op struct {
	Kind   OpKind
	Block  directory.BlockID
	Cycles sim.Time
}

// Program is one processor's sequence of operations.
type Program []Op

// Workload is a complete multi-processor application trace.
type Workload struct {
	// Name identifies the application.
	Name string
	// Programs holds one program per processor; processor i runs on node i.
	Programs []Program
	// SharedBlocks is the number of distinct shared blocks touched.
	SharedBlocks int
	// BarrierCost is the modelled cost of one barrier episode, charged to
	// each participant at release (an idealized hardware barrier).
	BarrierCost sim.Time
}

// PaperNames names the paper's three applications (Table 6) in presentation
// order.
var PaperNames = []string{"Barnes-Hut", "LU", "APSP"}

// PublishedProcs is the processor count of every application at its
// published size, the size ByName generates.
const PublishedProcs = 16

// published lists ByName's applications, each with its generator at its
// published size: Barnes-Hut 128 bodies / 4 steps, LU 128x128 with 8x8
// blocks, APSP (Floyd-Warshall) on 64 vertices, and the Jacobi stencil
// extension; PublishedProcs processors each.
var published = []app{
	{"Barnes-Hut", func() Workload { return BarnesHut(BarnesConfig{}) }},
	{"LU", func() Workload { return LU(LUConfig{}) }},
	{"APSP", func() Workload { return APSP(APSPConfig{}) }},
	{"Jacobi", func() Workload { return Jacobi(JacobiConfig{}) }},
}

type app struct {
	name string
	gen  func() Workload
}

// ByName returns the named application at its published size.
func ByName(name string) (Workload, error) {
	if i := slices.IndexFunc(published, func(a app) bool { return a.name == name }); i >= 0 {
		return published[i].gen(), nil
	}
	return Workload{}, fmt.Errorf("apps: unknown application %q", name)
}

// Known reports whether ByName knows name, without generating a trace.
func Known(name string) bool {
	return slices.ContainsFunc(published, func(a app) bool { return a.name == name })
}

// Stats summarizes a workload's reference mix.
type Stats struct {
	Reads, Writes, Computes, Barriers uint64
}

// Stats returns the workload's static operation counts.
func (w Workload) Stats() Stats {
	var s Stats
	for _, prog := range w.Programs {
		for _, op := range prog {
			switch op.Kind {
			case OpRead:
				s.Reads++
			case OpWrite:
				s.Writes++
			case OpCompute:
				s.Computes++
			case OpBarrier:
				s.Barriers++
			}
		}
	}
	return s
}

// RunResult reports one application execution on the machine.
type RunResult struct {
	// Time is the parallel execution time in cycles.
	Time sim.Time
	// Invals is the number of multi-party invalidation transactions.
	Invals int
	// AvgSharers is the mean sharer count over those transactions.
	AvgSharers float64
	// MaxSharers is the largest single invalidation.
	MaxSharers int
	// ReadMisses / WriteMisses are machine-wide miss counts.
	ReadMisses, WriteMisses int
}

// Run replays the workload on the machine and returns measurements. The
// machine must be freshly constructed with at least len(Programs) nodes.
func Run(m *coherence.Machine, w Workload) RunResult {
	if len(w.Programs) > m.Mesh.Nodes() {
		panic(fmt.Sprintf("apps: %d programs exceed %d nodes", len(w.Programs), m.Mesh.Nodes()))
	}
	invalsBefore := len(m.Metrics.Invals)
	readMissBefore := m.Metrics.ReadMiss.N()
	writeMissBefore := m.Metrics.WriteMiss.N()
	start := m.Engine.Now()

	bar := &barrier{engine: m.Engine, parties: len(w.Programs), cost: w.BarrierCost}
	remaining := len(w.Programs)
	// Each processor has at most one operation outstanding, so one
	// continuation per processor, bound once, serves every reference: next
	// advances the program counter and issues the following operation.
	procs := make([]proc, len(w.Programs))
	var exec func(p *proc)
	exec = func(p *proc) {
		n := p.node
		if p.pc == len(p.prog) {
			remaining--
			return
		}
		next := p.next
		op := p.prog[p.pc]
		switch op.Kind {
		case OpRead:
			m.Read(n, op.Block, next)
		case OpWrite:
			m.Write(n, op.Block, next)
		case OpCompute:
			m.Engine.AfterCall(op.Cycles, sim.CallFunc, next, 0)
		case OpBarrier:
			bar.arrive(next)
		default:
			panic("apps: unknown op kind")
		}
	}
	for i := range procs {
		p := &procs[i]
		p.node, p.prog = topology.NodeID(i), w.Programs[i]
		p.next = func() {
			p.pc++
			exec(p)
		}
	}
	begin := func(_ any, i int32) { exec(&procs[i]) }
	for i := range w.Programs {
		m.Engine.AtCall(m.Engine.Now(), begin, nil, int32(i))
	}
	m.Engine.Run()
	if w := m.Net.Wedged(remaining); w != nil {
		panic(w)
	}

	res := RunResult{
		Time:        m.Engine.Now() - start,
		ReadMisses:  m.Metrics.ReadMiss.N() - readMissBefore,
		WriteMisses: m.Metrics.WriteMiss.N() - writeMissBefore,
	}
	var sum int
	for _, rec := range m.Metrics.Invals[invalsBefore:] {
		res.Invals++
		sum += rec.Sharers
		if rec.Sharers > res.MaxSharers {
			res.MaxSharers = rec.Sharers
		}
	}
	if res.Invals > 0 {
		res.AvgSharers = float64(sum) / float64(res.Invals)
	}
	return res
}

// proc is one processor's replay state: its program, the index of its
// current operation, and the continuation every operation completes
// through.
type proc struct {
	node topology.NodeID
	prog Program
	pc   int
	next func()
}

// builder assembles a workload's programs, one per processor, with the
// shared-memory barrier on the two blocks past the application's data.
type builder struct {
	progs         []Program
	counter, flag directory.BlockID
}

// newBuilder starts procs empty programs whose barrier counter and flag are
// blocks base and base+1.
func newBuilder(procs int, base directory.BlockID) *builder {
	return &builder{progs: make([]Program, procs), counter: base, flag: base + 1}
}

// refs appends processor p's references of kind to the n consecutive blocks
// from first: the lines of one data structure.
func (b *builder) refs(p int, kind OpKind, first directory.BlockID, n int) {
	for l := 0; l < n; l++ {
		b.progs[p] = append(b.progs[p], Op{Kind: kind, Block: first + directory.BlockID(l)})
	}
}

// compute appends cycles of processor p's local computation.
func (b *builder) compute(p int, cycles sim.Time) {
	b.progs[p] = append(b.progs[p], Op{Kind: OpCompute, Cycles: cycles})
}

// barrier appends one sense-reversing shared-memory barrier episode to
// every program: each processor increments the barrier counter (read +
// write of the counter block) and then reads the release flag, which
// processor 0 rewrites after the rendezvous. The flag write invalidates
// every processor still holding the previous episode's flag value — the
// d ~ P-1 broadcast invalidation that makes synchronization a major
// coherence overhead on 1990s DSMs and a primary beneficiary of
// multidestination invalidation worms. The OpBarrier provides the actual
// rendezvous semantics for the trace replay.
func (b *builder) barrier() {
	for p := range b.progs {
		b.refs(p, OpRead, b.counter, 1)
		b.refs(p, OpWrite, b.counter, 1)
		b.progs[p] = append(b.progs[p], Op{Kind: OpBarrier})
	}
	b.refs(0, OpWrite, b.flag, 1)
	for p := range b.progs {
		b.refs(p, OpRead, b.flag, 1)
	}
}

// workload names the built programs; data counts the application's
// distinct data blocks, to which the barrier adds its two.
func (b *builder) workload(name string, data int) Workload {
	return Workload{Name: name, Programs: b.progs, SharedBlocks: data + 2, BarrierCost: 50}
}

// barrier is an idealized hardware barrier: the last arrival releases all
// waiters after cost cycles.
type barrier struct {
	engine  *sim.Engine
	parties int
	cost    sim.Time
	waiting []func()
}

func (b *barrier) arrive(resume func()) {
	b.waiting = append(b.waiting, resume)
	if len(b.waiting) < b.parties {
		return
	}
	waiters := b.waiting
	b.waiting = nil
	b.engine.AfterCall(b.cost, releaseWaiters, waiters, 0)
}

// releaseWaiters is the barrier's release event; arg is the []func() of
// resumptions.
func releaseWaiters(arg any, _ int32) {
	for _, w := range arg.([]func()) {
		w()
	}
}

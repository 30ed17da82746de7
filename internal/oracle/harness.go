package oracle

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/topology"
)

// Op is one operation of a harness workload, addressed to a node's
// program-order stream.
type Op struct {
	Node  int
	Block int
	Kind  OpKind
}

// RunConfig describes one full-machine oracle run: the simulated machine's
// shape, an optional fault plan, and the workload.
type RunConfig struct {
	Width, Height int
	Scheme        grouping.Scheme
	Consistency   coherence.Consistency
	// CacheLines bounds each cache (0 = unbounded), exercising eviction.
	CacheLines int
	// ChaosSeed, when nonzero, randomizes same-cycle event tie-breaking.
	ChaosSeed uint64
	// Fault, when non-nil, enables deterministic fault injection; recovery
	// is then mandatory.
	Fault *faults.Config
	// Recovery enables the home's i-ack timeout retry machinery.
	Recovery bool
	// MaxRetries overrides the recovery retry budget when positive.
	MaxRetries int
	// Ops lists the workload; list order within one node is that node's
	// program order, and streams of different nodes run concurrently.
	Ops []Op
	// CheckEvery runs the relaxed global invariant check after every
	// CheckEvery completed operations (0 = only at the end).
	CheckEvery int
	// Watchdog arms the network liveness watchdog; any firing is a
	// verification failure.
	Watchdog bool
}

func (c RunConfig) String() string {
	fault := "none"
	if c.Fault != nil {
		fault = fmt.Sprintf("drop=%g ackloss=%g stall=%g slow=%g seed=%#x",
			c.Fault.DropRate, c.Fault.AckLossRate, c.Fault.LinkStallRate,
			c.Fault.RouterSlowRate, c.Fault.Seed)
	}
	return fmt.Sprintf("%dx%d %v %v lines=%d chaos=%d recovery=%v fault={%s} ops=%d",
		c.Width, c.Height, c.Scheme, c.Consistency, c.CacheLines, c.ChaosSeed,
		c.Recovery, fault, len(c.Ops))
}

// RunResult is the outcome of one harness run: the recorded history plus
// every verification failure found. Failures are data, not errors — Run
// returns an error only for unusable configurations.
type RunResult struct {
	Config    RunConfig
	History   *History
	Completed int
	Cycles    uint64
	Failures  []string
}

// OK reports whether the run passed every oracle.
func (r *RunResult) OK() bool { return len(r.Failures) == 0 }

// Report renders a deterministic human-readable summary.
func (r *RunResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "run %s\n", r.Config)
	fmt.Fprintf(&sb, "  completed=%d cycles=%d po=%v\n", r.Completed, r.Cycles, r.History.PO)
	blocks := make([]int, 0, len(r.History.Commit))
	for b := range r.History.Commit {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	for _, b := range blocks {
		fmt.Fprintf(&sb, "  block %d: %d writes committed\n", b, len(r.History.Commit[b]))
	}
	if r.OK() {
		sb.WriteString("  result: PASS\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "  result: FAIL (%d failures)\n", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&sb, "  - %s\n", f)
	}
	return sb.String()
}

// params is the machine cfg runs on: DefaultParams with cfg's shape, scheme,
// consistency model, cache bound, recovery and fault injector.
func (cfg RunConfig) params() coherence.Params {
	p := coherence.DefaultParams(cfg.Width, cfg.Scheme)
	p.MeshWidth, p.MeshHeight = cfg.Width, cfg.Height
	p.Consistency = cfg.Consistency
	p.CacheLines = cfg.CacheLines
	if cfg.Recovery {
		p.Recovery = coherence.DefaultRecovery()
		if cfg.MaxRetries > 0 {
			p.Recovery.MaxRetries = cfg.MaxRetries
		}
	}
	if cfg.Fault != nil {
		// faults.New returns a typed-nil *Injector for a no-op config;
		// storing that in the interface field would make it non-nil and
		// crash the network on a nil receiver.
		if i := faults.New(*cfg.Fault); i != nil {
			p.Fault = i
		}
	}
	return p
}

// Run executes the workload on a real coherence.Machine while a shadow
// memory tracks, per block, the global write-commit order and, per node,
// the write whose value each cached copy holds. After the run it checks
// completion, quiescence, the strict global invariants, watchdog silence,
// and finally that the recorded history admits a legal total order
// (History.Check) under the configured consistency model.
//
// The shadow's soundness rests on two machine properties: the simulation
// engine executes each event atomically (a cache fill and its op-done
// callback cannot interleave with other nodes' activity), and the
// deferral/squash rules guarantee no fill ever installs a copy older
// than the block's latest committed write — a fill racing a
// directory-targeted invalidation installs before the deferred ack lets
// the write commit, and a squashed fill installs nothing — so a fill
// observing the shadow's latest token is exact, not approximate.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Width < 1 || cfg.Height < 1 || cfg.Width*cfg.Height < 2 {
		return nil, fmt.Errorf("oracle: mesh %dx%d too small", cfg.Width, cfg.Height)
	}
	if cfg.Fault != nil && !cfg.Recovery {
		return nil, fmt.Errorf("oracle: fault injection requires recovery")
	}
	nodes := cfg.Width * cfg.Height
	perNode := make([][]Op, nodes)
	for i, op := range cfg.Ops {
		if op.Node < 0 || op.Node >= nodes {
			return nil, fmt.Errorf("oracle: op %d: node %d out of range", i, op.Node)
		}
		if op.Kind != OpFence && op.Block < 0 {
			return nil, fmt.Errorf("oracle: op %d: negative block", i)
		}
		if op.Kind == OpFence && cfg.Consistency != coherence.ReleaseConsistency {
			return nil, fmt.Errorf("oracle: op %d: fence under sequential consistency", i)
		}
		perNode[op.Node] = append(perNode[op.Node], op)
	}

	p := cfg.params()
	m := coherence.NewMachine(p)
	if cfg.ChaosSeed != 0 {
		m.Engine.Chaos(cfg.ChaosSeed)
	}

	res := &RunResult{Config: cfg}
	fail := func(format string, a ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, a...))
	}
	if cfg.Watchdog {
		m.Net.StartWatchdog(p.Recovery.Timeout<<8, 3, func(d string) {
			fail("liveness watchdog fired:\n%s", d)
		})
	}

	// Shadow memory. ver[n][b] is the token whose value node n's valid
	// copy of b holds; latest[b] the newest committed token; pending[n][b]
	// node n's store buffer (RC write misses awaiting their grant).
	ver := make([]map[int]uint64, nodes)
	pending := make([]map[int][]uint64, nodes)
	for n := range ver {
		ver[n] = make(map[int]uint64)
		pending[n] = make(map[int][]uint64)
	}
	latest := make(map[int]uint64)
	commit := make(map[int][]uint64)
	streams := make([][]Obs, nodes)
	// squashSaw[n][b], when present, is the value a squashed read miss at
	// node n will consume: the block's latest committed token at the moment
	// the first invalidation squashed it. Squashes come only from recovery
	// retries and bounded caches (otherwise invalidations defer past the
	// fill and install normally). When the squashed read had
	// already been served, this is exactly the fill's data: the home
	// serialized the read before the squashing write, and that write cannot
	// commit until this node's acknowledgment (sent at the squash) arrives.
	// In the one remaining corner — a retry catching a re-request still
	// queued at the home, whose fill is served only after the transaction —
	// the recorded pre-write token is the weaker of the two legal outcomes;
	// it can never manufacture a spurious SC cycle, because ordering the
	// load before the write is consistent with everything a correct run can
	// observe.
	squashSaw := make([]map[int]uint64, nodes)
	for n := range squashSaw {
		squashSaw[n] = make(map[int]uint64)
	}
	m.OnSquash = func(n topology.NodeID, b directory.BlockID) {
		squashSaw[int(n)][int(b)] = latest[int(b)]
	}
	commitTok := func(n, b int, tok uint64) {
		commit[b] = append(commit[b], tok)
		latest[b] = tok
		ver[n][b] = tok
	}
	for n := 0; n < nodes; n++ {
		n := n
		m.Cache(topology.NodeID(n)).OnChange = func(b directory.BlockID, from, to cache.LineState) {
			blk := int(b)
			switch to {
			case cache.Invalid:
				delete(ver[n], blk)
			case cache.SharedLine:
				// A fill observes the latest committed write (exact: the
				// squash rule forbids stale installs); a downgrade keeps
				// the owner's value, which is by definition the latest.
				ver[n][blk] = latest[blk]
			case cache.ModifiedLine:
				// An ownership grant retires this node's buffered writes
				// to the block in FIFO order.
				for _, tok := range pending[n][blk] {
					commitTok(n, blk, tok)
				}
				delete(pending[n], blk)
				if _, ok := ver[n][blk]; !ok {
					ver[n][blk] = latest[blk]
				}
			}
		}
	}

	completed := 0
	checked := 0
	afterOp := func() {
		completed++
		if cfg.CheckEvery > 0 && completed-checked >= cfg.CheckEvery {
			checked = completed
			if err := m.CheckInvariantsMode(coherence.RelaxedInvariants); err != nil {
				fail("relaxed invariants after %d ops: %v", completed, err)
			}
		}
	}

	var tokCounter uint64
	var issue func(n int)
	idx := make([]int, nodes)
	issue = func(n int) {
		if idx[n] >= len(perNode[n]) {
			return
		}
		op := perNode[n][idx[n]]
		idx[n]++
		node := topology.NodeID(n)
		b := directory.BlockID(op.Block)
		blk := op.Block
		switch op.Kind {
		case OpRead:
			m.Read(node, b, func() {
				var saw uint64
				if ps := pending[n][blk]; len(ps) > 0 {
					// Store-buffer forwarding: the read saw this node's
					// youngest not-yet-committed write.
					saw = ps[len(ps)-1]
				} else if sv, ok := squashSaw[n][blk]; ok {
					// Squashed miss: the load consumed its fill without
					// installing, ordered just before the squashing write.
					saw = sv
					delete(squashSaw[n], blk)
				} else {
					saw = ver[n][blk]
				}
				streams[n] = append(streams[n], Obs{Kind: OpRead, Block: blk, Saw: saw})
				afterOp()
				issue(n)
			})
		case OpWrite:
			tokCounter++
			tok := tokCounter
			if cfg.Consistency == coherence.ReleaseConsistency {
				m.WriteAsync(node, b, func() {
					if m.Cache(node).State(b) == cache.ModifiedLine {
						// Write hit: committed on the spot. (A pending
						// buffered write would have kept the line non-M.)
						commitTok(n, blk, tok)
					} else {
						pending[n][blk] = append(pending[n][blk], tok)
					}
					streams[n] = append(streams[n], Obs{Kind: OpWrite, Block: blk, Tok: tok})
					afterOp()
					issue(n)
				})
				return
			}
			m.Write(node, b, func() {
				commitTok(n, blk, tok)
				streams[n] = append(streams[n], Obs{Kind: OpWrite, Block: blk, Tok: tok})
				afterOp()
				issue(n)
			})
		case OpFence:
			m.Fence(node, func() {
				streams[n] = append(streams[n], Obs{Kind: OpFence})
				afterOp()
				issue(n)
			})
		default:
			panic("oracle: unknown op kind")
		}
	}
	for n := 0; n < nodes; n++ {
		issue(n)
	}
	m.Engine.Run()

	res.Completed = completed
	res.Cycles = uint64(m.Engine.Now())
	po := POFull
	if cfg.Consistency == coherence.ReleaseConsistency {
		po = POFence
	}
	res.History = &History{Streams: streams, Commit: commit, PO: po}

	if completed != len(cfg.Ops) {
		fail("only %d/%d operations completed:\n%s",
			completed, len(cfg.Ops), m.Net.Diagnose())
		return res, nil
	}
	if !m.Quiesced() {
		fail("network not quiesced after engine drain")
	}
	if err := m.CheckInvariants(); err != nil {
		fail("final invariants: %v", err)
	}
	if err := res.History.Check(); err != nil {
		fail("%v", err)
	}
	return res, nil
}

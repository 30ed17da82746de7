package coherence

import (
	"fmt"

	"repro/internal/blocktab"
	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Machine is a k x k wormhole-routed DSM: one processor + cache + directory
// slice + router per node, glued by the coherence protocol.
type Machine struct {
	Engine  *sim.Engine
	Mesh    *topology.Mesh
	Net     *network.Network
	Params  Params
	Metrics *metrics.Collector

	// Per-node state, one flat array each; the caches share one line
	// store.
	lines   cache.Lines
	caches  []cache.Cache
	dirs    []directory.Directory
	servers []server
	homes   *directory.HomeMap

	// Block tables keyed by the block alone use owner 0.
	//
	// pending holds the transaction queue of every block with a home-side
	// transaction in flight; an idle block's queue goes to freeQueues.
	pending    blocktab.Table[*blockQueue]
	freeQueues []*blockQueue
	// ops holds every processor's outstanding operations by (node, block),
	// and opCount how many each node has.
	ops     blocktab.Table[*pendingOp]
	opCount []int32
	// writeBufs tracks buffered writes per node (release consistency).
	writeBufs []writeBuffer
	// homeOps holds the home-side context of dirty-block fetches, at most
	// one per block (the per-block queue guarantees exclusivity).
	homeOps blocktab.Table[*homeOp]
	// ownGens remembers, per (node, block), the ownership-grant generation
	// the node's Modified copy was installed under, echoed on its dirty
	// writeback so the home can discard stale writebacks.
	ownGens blocktab.Table[uint64]
	// Rec, when non-nil, receives cycle-stamped protocol events (op, msg,
	// directory, and transaction milestones). Install with AttachTrace.
	Rec *trace.Recorder
	// OnSquash, when non-nil, is called the first time an outstanding read
	// miss is squashed by a recovery retry, or by any invalidation under
	// bounded caches (see pendingOp.squashed; otherwise invalidations defer
	// past the fill and never squash). Purely observational — verification
	// harnesses use it to learn which value a squashed load consumed.
	OnSquash func(n topology.NodeID, b directory.BlockID)
	// nextOpTok numbers traced operations; advanced only while recording.
	nextOpTok uint64
	// scratchPick is a per-node scratch bitmap reused by sendGather's
	// pick-up-point marking (cleared after each use).
	scratchPick []bool
	// scratchRemote holds startInval's remote-sharer list while it plans.
	scratchRemote []topology.NodeID
	// planner groups every invalidation transaction's sharers into worms.
	planner grouping.Planner

	// Bound protocol handlers (initHandlers), scheduled through
	// server.doCall so the per-delivery hot paths allocate no closures.
	fnHomeRecv         func(any, int32)
	fnHomeLookup       func(any, int32)
	fnHomeReadReply    func(any, int32)
	fnRequesterReply   func(any, int32)
	fnRecvInvalAck     func(any, int32)
	fnRecvGatherAck    func(any, int32)
	fnSharerInvalMid   func(any, int32)
	fnSharerInvalFinal func(any, int32)
	fnSendInvalAck     func(any, int32)
	fnSendGather       func(any, int32)
	fnReadIssue        func(any, int32)
	fnWriteIssue       func(any, int32)
	fnSendReadReq      func(any, int32)
	fnSendWriteReq     func(any, int32)
	fnTxnDeadline      func(any, int32)
	fnSendGroup        func(any, int32)
	fnGrantWrite       func(any, int32)
	// freeMsgs pools retired protocol messages (bounded; see freeMsg).
	freeMsgs []*msg
	// freeTxns pools recycled invalidation transactions (see invalTxn).
	freeTxns []*invalTxn
	// freeOps pools retired pendingOps (bounded; see freeOp).
	freeOps []*pendingOp

	nextTxn uint64
}

// blockQueue serializes home-side transactions on one block: while a
// transaction is in flight (directory state Waiting) later requests queue
// here, preserving arrival order.
type blockQueue struct {
	busy  bool
	queue sim.FIFO[*msg]
}

// server models a node's protocol controller occupancy: tasks run FIFO,
// one at a time, each for a fixed cost. It is the source of the home
// hot-spot effect under UI-UA.
type server struct {
	engine    *sim.Engine
	busyUntil sim.Time
	busyTotal *sim.Time
	// rec/node mirror Machine.Rec for the occupancy hook (AttachTrace).
	rec  *trace.Recorder
	node int32
}

// do schedules fn to run after the server has finished earlier work plus
// cost cycles of its own, and accounts the cost as occupancy.
//
//simcheck:noalloc
func (s *server) do(cost sim.Time, fn func()) { s.doCall(cost, sim.CallFunc, fn, 0) }

// doCall is do for a pre-bound callback: it schedules (fn, arg, i)
// directly, so the hot protocol paths run without a per-task closure
// allocation.
//
//simcheck:noalloc
func (s *server) doCall(cost sim.Time, fn func(any, int32), arg any, i int32) {
	start := s.engine.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	if s.rec != nil {
		s.rec.Emit(trace.Event{At: s.engine.Now(), Kind: trace.KindServerBusy,
			Node: s.node, A: uint64(start), B: uint64(start + cost)})
	}
	s.busyUntil = start + cost
	*s.busyTotal += cost
	s.engine.AtCall(s.busyUntil, fn, arg, i)
}

// NewMachine builds a machine from params. The caller drives it through
// Read/Write and the Engine.
func NewMachine(p Params) *Machine {
	var mesh *topology.Mesh
	switch {
	case p.MeshWidth > 0 && p.MeshHeight > 0:
		mesh = topology.NewMesh(p.MeshWidth, p.MeshHeight)
	case p.MeshSize > 0:
		mesh = topology.NewSquareMesh(p.MeshSize)
	default:
		panic("coherence: MeshSize (or MeshWidth x MeshHeight) must be positive")
	}
	engine := sim.NewEngine()
	nodes := mesh.Nodes()
	m := &Machine{
		Engine:  engine,
		Mesh:    mesh,
		Params:  p,
		Metrics: metrics.NewCollector(nodes),
		homes:   directory.NewHomeMap(nodes),
		opCount: make([]int32, nodes),
		caches:  make([]cache.Cache, nodes),
		dirs:    make([]directory.Directory, nodes),
		servers: make([]server, nodes),
	}
	m.Net = network.New(engine, mesh, p.Net)
	m.Net.OnDeliver = m.deliver
	m.Net.Fault = p.Fault
	for i := range nodes {
		m.caches[i] = m.lines.Cache(i, p.CacheLines)
		m.dirs[i] = directory.New(nodes)
		m.servers[i] = server{engine: engine, busyTotal: &m.Metrics.Occupancy[i]}
	}
	m.initHandlers()
	return m
}

// Home returns the home node of a block.
func (m *Machine) Home(b directory.BlockID) topology.NodeID { return m.homes.Home(b) }

// Cache returns node n's cache (for inspection in tests and tools).
func (m *Machine) Cache(n topology.NodeID) *cache.Cache { return &m.caches[n] }

// DirEntry returns the directory entry for b at its home.
func (m *Machine) DirEntry(b directory.BlockID) *directory.Entry {
	return m.dirs[m.Home(b)].Lookup(b)
}

func (m *Machine) server(n topology.NodeID) *server { return &m.servers[n] }

// send builds and injects a unicast protocol message. The caller must
// already have paid SendOccupancy on the sender's server.
//
//simcheck:noalloc
func (m *Machine) send(t msgType, src, dst topology.NodeID, payload *msg) {
	m.Metrics.MsgsSent[src]++
	base := m.Params.Scheme.Base()
	vn := vnFor(t)
	w := m.Net.NewWorm()
	var path []topology.NodeID
	if vn == network.Reply {
		// The reply network routes with the reverse base routing: the path
		// from src to dst is the reverse of a base path from dst to src.
		path = base.UnicastPathInto(w.TakePathBuf(), m.Mesh, dst, src)
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
	} else {
		path = base.UnicastPathInto(w.TakePathBuf(), m.Mesh, src, dst)
	}
	dests := w.TakeDestBuf(len(path))
	dests[len(path)-1] = true
	w.Kind = network.Unicast
	w.VN = vn
	w.Path = path
	w.Dest = dests
	w.HeaderFlits = m.Params.Net.HeaderFlits(1)
	w.PayloadFlits = m.payloadFlits(t)
	w.Tag = payload
	// Invalidation-class traffic is expendable: the home's i-ack
	// timeout re-covers a lost inval or ack.
	w.Expendable = t == inval || t == invalAck
	if payload.txn != nil {
		w.TxnID = payload.txn.id
	}
	m.Net.Inject(w)
	if m.Rec != nil {
		m.recMsg(trace.KindMsgSend, 0, src, w.ID, payload, uint64(dst))
	}
}

// sendGroup injects a multidestination invalidation worm (multicast or
// i-reserve, per the scheme) for one group of a transaction. The worm is
// delivered once per member, and each delivery holds a reference to txn.
//
//simcheck:noalloc
func (m *Machine) sendGroup(txn *invalTxn, gi int) {
	m.Metrics.MsgsSent[txn.home]++
	g := txn.groups[gi]
	kind := network.Multicast
	if m.Params.Scheme.GatherAck() {
		kind = network.Reserve
	}
	w := m.Net.NewWorm()
	w.Kind = kind
	w.VN = network.Request
	// The worm carries its own copy of the path, so the plan is the
	// transaction's alone.
	path := w.TakePathBuf()
	path = append(path, g.Path...)
	w.Path = path
	w.Dest = destFlagsInto(w.TakeDestBuf(len(g.Path)), g.Path, g.Members)
	w.HeaderFlits = m.Params.Net.HeaderFlits(len(g.Members))
	w.PayloadFlits = m.Params.controlFlits()
	w.TxnID = txn.id
	pm := m.txnMsg(txn)
	pm.groupIdx = gi
	txn.refs += len(g.Members)
	w.Tag = pm
	w.Expendable = true
	m.Net.Inject(w)
	if m.Rec != nil {
		m.recMsg(trace.KindMsgSend, 0, txn.home, w.ID, w.Tag.(*msg), uint64(gi))
	}
}

// sendGather injects the i-gather worm for group gi, launched by the
// group's last member back to the home node.
//
//simcheck:noalloc
func (m *Machine) sendGather(txn *invalTxn, gi int) {
	g := txn.groups[gi]
	m.Metrics.MsgsSent[g.Last()]++
	w := m.Net.NewWorm()
	// The gather worm retraces the group path backwards (reply network =
	// reverse base routing, so the path stays BRCP-conformed).
	path := w.TakePathBuf()
	for i := len(g.Path) - 1; i >= 0; i-- {
		path = append(path, g.Path[i])
	}
	// Pick-up points: every member except the launcher, plus the home as
	// final destination.
	if m.scratchPick == nil {
		//simcheck:allow noalloc -- one-time scratch buffer, reused thereafter
		m.scratchPick = make([]bool, m.Mesh.Nodes())
	}
	pick := m.scratchPick
	for _, mem := range g.Members[:len(g.Members)-1] {
		pick[mem] = true
	}
	dests := w.TakeDestBuf(len(path))
	for i, nd := range path {
		if i > 0 && pick[nd] {
			dests[i] = true
			pick[nd] = false
		}
	}
	for _, mem := range g.Members[:len(g.Members)-1] {
		pick[mem] = false
	}
	dests[len(path)-1] = true
	w.Kind = network.Gather
	w.VN = network.Reply
	w.Path = path
	w.Dest = dests
	w.HeaderFlits = m.Params.Net.HeaderFlits(len(g.Members))
	w.PayloadFlits = m.Params.controlFlits()
	w.TxnID = txn.id
	ga := m.newMsg()
	ga.typ, ga.block, ga.from, ga.txn, ga.groupIdx = gatherAck, txn.block, g.Last(), txn, gi
	txn.refs++
	w.Tag = ga
	w.Expendable = true
	m.Net.Inject(w)
	if m.Rec != nil {
		m.recMsg(trace.KindMsgSend, 0, g.Last(), w.ID, w.Tag.(*msg), uint64(gi))
	}
}

// destFlagsInto marks each member's occurrence on the path in visit order
// (the path may pass through a later member's node before its turn;
// matching sequentially keeps the flags aligned with the worm's header
// stripping), writing into a caller-provided all-false slice of len(path):
// a pooled worm's destination buffer.
func destFlagsInto(dests []bool, path []topology.NodeID, members []topology.NodeID) []bool {
	mi := 0
	for i, nd := range path {
		if i > 0 && mi < len(members) && nd == members[mi] {
			dests[i] = true
			mi++
		}
	}
	if mi != len(members) {
		panic("coherence: group path does not visit every member in order")
	}
	if !dests[len(path)-1] {
		panic("coherence: group path does not end at a member")
	}
	return dests
}

// payloadFlits returns the payload size of a message type.
//
//simcheck:noalloc
func (m *Machine) payloadFlits(t msgType) int {
	if t.carriesData() {
		return m.Params.dataFlits()
	}
	return m.Params.controlFlits()
}

// vnFor maps message types onto the two virtual networks. Requests flow on
// the request network; everything sent in response to a request flows on
// the reply network, the standard arrangement that breaks request-reply
// protocol deadlock.
func vnFor(t msgType) network.VN {
	switch t {
	case readReq, writeReq, inval, fetchReq, fetchInval:
		return network.Request
	case invalAck, gatherAck, fetchReply, readReply, writeReply, writeback:
		return network.Reply
	default:
		panic(fmt.Sprintf("coherence: no VN for %v", t))
	}
}

// queueFor returns (taking one from the pool if needed) the per-block home
// transaction queue.
//
//simcheck:pool acquire
//simcheck:noalloc
func (m *Machine) queueFor(b directory.BlockID) *blockQueue {
	q, ok := m.pending.Get(0, uint64(b))
	if !ok {
		if k := len(m.freeQueues) - 1; k >= 0 {
			q = m.freeQueues[k]
			m.freeQueues[k] = nil
			m.freeQueues = m.freeQueues[:k]
		} else {
			//simcheck:allow noalloc -- cold pool fill; steady state reuses freeQueues
			q = &blockQueue{}
		}
		m.pending.Put(0, uint64(b), q)
	}
	return q
}

// freeQueue returns idle block b's queue q to the pool.
//
//simcheck:pool release
//simcheck:noalloc
func (m *Machine) freeQueue(q *blockQueue, b directory.BlockID) {
	q.busy = false
	m.pending.Delete(0, uint64(b))
	m.freeQueues = append(m.freeQueues, q)
}

// releaseBlock completes the in-flight transaction on b and starts the next
// queued request, if any. A block left idle returns its queue to the pool.
//
//simcheck:noalloc
func (m *Machine) releaseBlock(b directory.BlockID) {
	q, _ := m.pending.Get(0, uint64(b))
	if q == nil || !q.busy {
		panic("coherence: releaseBlock on idle block")
	}
	if q.queue.Empty() {
		m.freeQueue(q, b)
		return
	}
	next := q.queue.Pop()
	// Hand over directly: the block stays busy.
	m.homeHandle(m.homes.Home(next.block), next)
}

// newMsg returns a protocol message from the free pool (or a fresh one).
// Pool-allocated messages behave identically to literals; only freeMsg has
// aliasing rules.
//
//simcheck:pool acquire
//simcheck:noalloc
func (m *Machine) newMsg() *msg {
	if k := len(m.freeMsgs) - 1; k >= 0 {
		pm := m.freeMsgs[k]
		m.freeMsgs[k] = nil
		m.freeMsgs = m.freeMsgs[:k]
		return pm
	}
	//simcheck:allow noalloc -- cold pool fill; steady state reuses freeMsgs
	return &msg{}
}

// freeMsg recycles a message nothing reads any more. A single-delivery
// message (a request, a reply, an acknowledgment) is freed by the handler
// that consumes it last; an inval payload belongs to its transaction and is
// freed when the transaction is recycled (see invalTxn). Messages built as
// literals on the cold paths are left to the collector. The pool is
// bounded so a burst cannot pin memory.
//
//simcheck:pool release
//simcheck:noalloc
func (m *Machine) freeMsg(pm *msg) {
	*pm = msg{}
	if len(m.freeMsgs) < 1024 {
		m.freeMsgs = append(m.freeMsgs, pm)
	}
}

// newTxnID returns a fresh transaction id (never zero so it is always a
// valid i-ack buffer key).
func (m *Machine) newTxnID() uint64 {
	m.nextTxn++
	return m.nextTxn
}

// Quiesced reports whether the machine has no in-flight network traffic.
func (m *Machine) Quiesced() bool { return m.Net.Outstanding() == 0 }

// Busy occupies node n's protocol controller for d cycles starting now,
// modelling processor activity that delays protocol message service (cache
// invalidations included). Protocol work already queued runs first.
func (m *Machine) Busy(n topology.NodeID, d sim.Time) {
	m.server(n).do(d, func() {})
}

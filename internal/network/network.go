package network

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config holds the network timing and resource parameters. All times are in
// the repository's 5 ns base cycles.
type Config struct {
	// FlitCycles is the time for one flit to cross one link (2 cycles:
	// 2-byte flits on a 200 Mbyte/s link).
	FlitCycles sim.Time
	// RouterDelay is the header's routing-decision delay per router
	// (4 cycles = 20 ns).
	RouterDelay sim.Time
	// InjectDelay is the header's delay from the network interface into
	// the local router.
	InjectDelay sim.Time
	// ConsumptionChannels is the number of consumption channels from each
	// router interface to its node; 4 guarantees deadlock freedom for
	// multidestination worms on a 2-D mesh [39].
	ConsumptionChannels int
	// IAckBuffers is the number of i-ack buffer entries per router
	// interface (the paper proposes 2-4).
	IAckBuffers int
	// VirtualChannels is the number of virtual channel lanes multiplexed
	// over each physical link per virtual network (1 = plain wormhole).
	VirtualChannels int
	// VCTDeferred enables virtual-cut-through deferred delivery for
	// blocked i-gather worms: instead of stalling in the network holding
	// channels, the worm parks in the i-ack buffer's message field and is
	// re-injected when the local ack posts [36].
	VCTDeferred bool
	// HeaderFlitsUnicast is the routing header length of a unicast worm.
	HeaderFlitsUnicast int
	// DestsPerHeaderFlit is how many additional destinations one extra
	// header flit encodes (bit-string multidestination encoding [37, 38]).
	DestsPerHeaderFlit int
}

// DefaultConfig returns the paper's technology point (100 MHz processors,
// 200 Mbyte/s links, 20 ns routers) expressed in 5 ns cycles.
func DefaultConfig() Config {
	return Config{
		FlitCycles:          2,
		RouterDelay:         4,
		InjectDelay:         2,
		ConsumptionChannels: 4,
		IAckBuffers:         4,
		VirtualChannels:     1,
		VCTDeferred:         false,
		HeaderFlitsUnicast:  3,
		DestsPerHeaderFlit:  2,
	}
}

// HeaderFlits returns the header length for a worm with the given number of
// destinations under this config's encoding.
func (c Config) HeaderFlits(numDests int) int {
	if numDests <= 1 {
		return c.HeaderFlitsUnicast
	}
	extra := (numDests - 2 + c.DestsPerHeaderFlit) / c.DestsPerHeaderFlit
	return c.HeaderFlitsUnicast + extra
}

// Stats aggregates network-level counters.
type Stats struct {
	Injected   uint64 // worms injected
	Completed  uint64 // worms fully consumed at their final destination
	Copies     uint64 // forward-and-absorb copies delivered at intermediates
	FlitHops   uint64 // sum over worms of flits x links traversed
	VCTParks   uint64 // gather worms parked by deferred delivery
	GatherWait uint64 // gather worms that found an ack not yet posted

	// Fault-injection and recovery accounting; all zero on a fault-free
	// fabric (nil Network.Fault, no AbortTxn calls).
	Dropped          uint64 // expendable worms killed mid-flight by injected faults
	Aborted          uint64 // in-flight worms killed by transaction aborts
	LostAcks         uint64 // i-ack posts lost by injected faults
	StaleAcks        uint64 // i-ack posts absorbed after their transaction aborted
	LinkStallCycles  uint64 // total injected link-stall wait, in cycles
	RouterSlowCycles uint64 // total injected router-slowdown delay, in cycles
}

// Network is the cycle-level wormhole mesh simulator. Deliveries are
// reported through OnDeliver, which must be set before the first Inject.
type Network struct {
	Engine *sim.Engine
	Mesh   *topology.Mesh
	Cfg    Config
	// OnDeliver receives every worm delivery: intermediate copies as the
	// tail passes each destination, and the final consumption.
	OnDeliver func(Delivery)
	// Fault, when non-nil, is consulted on the hot paths for injected
	// faults: worm drops, link stalls, router slowdowns, lost acks. Nil —
	// the default — models a fault-free fabric with zero perturbation.
	Fault Injector
	// Rec, when non-nil, receives cycle-stamped worm-lifecycle events
	// (inject/route/block/hold/drain/deliver and fault decisions). Nil —
	// the default — costs one pointer comparison per hook site; recording
	// never perturbs the schedule either way.
	Rec *trace.Recorder

	// injection[vn][node] and links[vn][node*NumPorts+port] are the
	// wormhole channel sets, stored by value (an absent link has nil
	// chans); cons[node] the consumption pools; iack[node] the i-ack
	// buffer files. Every array, and the lanes and buffer entries they
	// hold, is carved from one allocation per kind, so building a network
	// costs the same number of allocations at any mesh size.
	injection [numVNs][]vcSet
	links     [numVNs][]vcSet
	cons      []consumptionPool
	iack      []iackFile

	// meshW caches the mesh width for Inject's ID-delta port computation.
	meshW int

	// Bound event callbacks, allocated once in New: scheduling a hop is
	// then a pure (fn, worm, index) triple with no per-event closure.
	fnHeaderAt     func(any, int32)
	fnServiceNode  func(any, int32)
	fnAcquireLink  func(any, int32)
	fnRequestNext  func(any, int32)
	fnDrainRel     func(any, int32)
	fnDrainEnd     func(any, int32)
	fnLocalDeliver func(any, int32)

	// freeWorms pools retired worms created by NewWorm for reuse.
	freeWorms []*Worm

	nextID uint64
	stats  Stats
	// inFlight holds every injected worm until it completes or is killed,
	// for Outstanding, Diagnose and AbortTxn. Order is arbitrary: a worm
	// records its position in slot, and removal swaps in the last entry.
	inFlight []*Worm
	// beacon counts forward-progress marks (header advances, channel
	// releases, completions) for the liveness watchdog.
	beacon sim.Beacon
	wd     *watchdog
	// abortedTxns records transactions cancelled via AbortTxn so that
	// late i-ack posts for them are absorbed instead of panicking.
	abortedTxns map[uint64]bool
}

// New constructs a network over mesh with the given parameters.
func New(engine *sim.Engine, mesh *topology.Mesh, cfg Config) *Network {
	if cfg.FlitCycles == 0 || cfg.HeaderFlitsUnicast == 0 {
		panic("network: zero-valued Config; use DefaultConfig as a base")
	}
	if cfg.ConsumptionChannels <= 0 || cfg.IAckBuffers <= 0 {
		panic("network: need at least one consumption channel and i-ack buffer")
	}
	if cfg.VirtualChannels <= 0 {
		panic("network: need at least one virtual channel per link")
	}
	n := &Network{
		Engine: engine, Mesh: mesh, Cfg: cfg,
		meshW: mesh.Width(),
	}
	nodes := mesh.Nodes()
	// Lanes are sized for every port; a mesh's edge ports leave theirs
	// unused.
	sets := make([]vcSet, int(numVNs)*nodes*(1+int(topology.NumPorts)))
	lanes := make([]channel, int(numVNs)*nodes*(1+int(topology.NumPorts)*cfg.VirtualChannels))
	for vn := VN(0); vn < numVNs; vn++ {
		n.injection[vn], sets = sets[:nodes:nodes], sets[nodes:]
		k := nodes * int(topology.NumPorts)
		n.links[vn], sets = sets[:k:k], sets[k:]
		for id := topology.NodeID(0); int(id) < nodes; id++ {
			lanes = n.injection[vn][id].init(lanes, 1)
			for p := topology.East; p <= topology.South; p++ {
				if _, ok := mesh.Neighbor(id, p); ok {
					lanes = n.link(vn, id, p).init(lanes, cfg.VirtualChannels)
				}
			}
		}
	}
	n.cons = make([]consumptionPool, nodes)
	n.iack = make([]iackFile, nodes)
	entries := make([]iackEntry, nodes*cfg.IAckBuffers)
	for id := 0; id < nodes; id++ {
		n.cons[id] = consumptionPool{total: cfg.ConsumptionChannels}
		entries = n.iack[id].init(entries, cfg.IAckBuffers)
	}
	n.fnHeaderAt = func(a any, i int32) {
		w := a.(*Worm)
		n.headerAt(w, int(i))
		n.wormUnref(w)
	}
	n.fnServiceNode = func(a any, i int32) {
		w := a.(*Worm)
		n.serviceNode(w, int(i))
		n.wormUnref(w)
	}
	n.fnAcquireLink = func(a any, i int32) {
		w := a.(*Worm)
		n.acquireLink(w, int(i))
		n.wormUnref(w)
	}
	n.fnRequestNext = func(a any, i int32) {
		w := a.(*Worm)
		n.requestNext(w, int(i))
		n.wormUnref(w)
	}
	n.fnDrainRel = func(a any, i int32) {
		w := a.(*Worm)
		if w.heldFrom == int(i) {
			n.releaseIndex(w, int(i), n.Engine.Now())
		}
		n.wormUnref(w)
	}
	n.fnDrainEnd = func(a any, _ int32) {
		w := a.(*Worm)
		end := n.Engine.Now()
		for w.heldFrom < len(w.Path) {
			n.releaseIndex(w, w.heldFrom, end)
		}
		n.releaseCons(&n.cons[w.Final()])
		n.finishWorm(w)
		n.wormUnref(w)
	}
	n.fnLocalDeliver = func(a any, _ int32) {
		w := a.(*Worm)
		if w.state != wormKilled {
			n.finishWorm(w)
		}
		n.wormUnref(w)
	}
	return n
}

// Outstanding returns the number of injected worms not yet fully consumed.
// A positive value after the event queue drains indicates deadlock.
func (n *Network) Outstanding() int { return len(n.inFlight) }

// Stats returns a copy of the aggregate counters.
func (n *Network) Stats() Stats { return n.stats }

// NewWorm returns a worm from the network's free pool (or a fresh pooled
// one). Pooled worms are recycled automatically once fully consumed (or
// killed) and every scheduled callback referencing them has drained, so the
// protocol layer must not retain the pointer past the delivery callback.
// Worms constructed directly as literals are never pooled and stay
// inspectable after completion.
//
//simcheck:pool acquire
//simcheck:noalloc
func (n *Network) NewWorm() *Worm {
	if k := len(n.freeWorms) - 1; k >= 0 {
		w := n.freeWorms[k]
		n.freeWorms[k] = nil
		n.freeWorms = n.freeWorms[:k]
		return w
	}
	//simcheck:allow noalloc -- cold pool fill; steady state reuses freeWorms
	return &Worm{pooled: true}
}

// recycleWorm resets a retired pooled worm, reclaiming its owned buffers,
// and returns it to the free pool.
//
//simcheck:pool release
//simcheck:noalloc
func (n *Network) recycleWorm(w *Worm) {
	if w.ownsPath {
		w.pathBuf = w.Path[:0]
	}
	if w.ownsDest {
		w.destBuf = w.Dest[:0]
	}
	// The reset zeroes slot as well as ID, so nothing can mistake a
	// recycled worm for the live worm it was.
	*w = Worm{
		pooled:   true,
		pathBuf:  w.pathBuf,
		destBuf:  w.destBuf,
		lanes:    w.lanes[:0],
		sets:     w.sets[:0],
		consHeld: w.consHeld[:0],
	}
	n.freeWorms = append(n.freeWorms, w)
}

//
//simcheck:noalloc
func (n *Network) wormRef(w *Worm) { w.refs++ }

//
//simcheck:noalloc
func (n *Network) wormUnref(w *Worm) {
	w.refs--
	if w.refs == 0 && w.pooled && (w.state == wormDone || w.state == wormKilled) {
		n.recycleWorm(w)
	}
}

// schedWorm schedules fn(w, i) after d, holding a reference on w until the
// callback wrapper releases it.
//
//simcheck:noalloc
func (n *Network) schedWorm(d sim.Time, fn func(any, int32), w *Worm, i int32) {
	w.refs++
	n.Engine.AfterCall(d, fn, w, i)
}

// schedWormAt is schedWorm with an absolute fire time.
//
//simcheck:noalloc
func (n *Network) schedWormAt(t sim.Time, fn func(any, int32), w *Worm, i int32) {
	w.refs++
	n.Engine.AtCall(t, fn, w, i)
}

// link returns the channel set of node's outgoing link through port on vn
// (nil chans when the link is absent).
//
//simcheck:noalloc
func (n *Network) link(vn VN, node topology.NodeID, port topology.Port) *vcSet {
	return &n.links[vn][int(node)*int(topology.NumPorts)+int(port)]
}

// portBetween computes the outgoing port from one node to the next on a
// path from their ID delta, reporting false when the two are not both on
// the mesh or the delta names no port. The row deltas are checked first,
// which also covers degenerate 1-wide meshes. An X delta whose nodes sit
// in different rows is no hop: that case is exactly an edge with no link,
// which the caller rejects by the set's nil chans.
//
//simcheck:noalloc
func (n *Network) portBetween(from, to topology.NodeID) (topology.Port, bool) {
	if nodes := uint(len(n.cons)); uint(from) >= nodes || uint(to) >= nodes {
		return 0, false
	}
	switch int(to) - int(from) {
	case n.meshW:
		return topology.North, true
	case -n.meshW:
		return topology.South, true
	case 1:
		return topology.East, true
	case -1:
		return topology.West, true
	}
	return 0, false
}

// resolveLinks maps each hop i of w's path, Path[i] to Path[i+1], to its
// link's channel set in w.sets, once per worm: acquisition then reads
// w.sets[i]. A hop that is not a link of the mesh panics.
//
//simcheck:noalloc
func (n *Network) resolveLinks(w *Worm) {
	hops := len(w.Path) - 1
	w.sets = slices.Grow(w.sets[:0], hops)[:hops]
	links := n.links[w.VN]
	for i := range w.sets {
		from := w.Path[i]
		p, ok := n.portBetween(from, w.Path[i+1])
		if ok {
			w.sets[i] = &links[int(from)*int(topology.NumPorts)+int(p)]
		}
		if !ok || w.sets[i].chans == nil {
			panic(fmt.Sprintf("network: worm path not hop-contiguous at %d", i+1))
		}
	}
}

// Inject launches w at the current simulation time. The worm's Path, Dest,
// Kind, VN, HeaderFlits and PayloadFlits must be filled in.
//
//simcheck:noalloc
func (n *Network) Inject(w *Worm) {
	if n.OnDeliver == nil {
		panic("network: OnDeliver not set")
	}
	w.validate()
	n.resolveLinks(w)
	w.ID = n.nextID
	n.nextID++
	w.net = n
	w.injectedAt = n.Engine.Now()
	w.state = wormInjecting
	npath := len(w.Path)
	w.lanes = slices.Grow(w.lanes[:0], npath)[:npath]
	clear(w.lanes)
	w.heldFrom = 0
	w.hopIdx = 0
	w.consHeld = w.consHeld[:0]
	n.inFlight = append(n.inFlight, w)
	w.slot = len(n.inFlight)
	n.stats.Injected++
	n.stats.FlitHops += uint64(w.Flits()) * uint64(w.Hops())
	n.armWatchdog()
	if n.Rec != nil {
		n.traceWorm(trace.KindWormInject, uint8(w.VN), w, w.Source(), uint64(w.Flits()), uint64(w.Hops()), w.Kind.String())
	}

	if npath == 1 {
		// Degenerate local delivery: no network resources used.
		n.schedWorm(n.Cfg.InjectDelay+sim.Time(w.Flits())*n.Cfg.FlitCycles, n.fnLocalDeliver, w, 0)
		return
	}
	inj := &n.injection[w.VN][w.Source()]
	lane := inj.tryAcquire(n.Engine.Now())
	if lane == nil {
		if n.Rec != nil {
			n.traceWorm(trace.KindWormBlock, trace.BlockInjection, w, w.Source(), 0, 0, "")
		}
		n.wormRef(w)
		inj.waiters.push(w, 0, actInject)
		return
	}
	n.grantInjection(w, 0, lane, false, false)
}

// grantInjection runs when w is granted an injection-port lane: at the
// source (reinject == false) or at a re-injection router for a VCT-parked
// gather worm (reinject == true, i is the park index).
//
//simcheck:noalloc
func (n *Network) grantInjection(w *Worm, i int32, lane *channel, wasBlocked, reinject bool) {
	now := n.Engine.Now()
	if w.state == wormKilled {
		n.releaseLane(lane, now)
		return
	}
	ii := int(i)
	if !reinject {
		if n.Rec != nil {
			if wasBlocked {
				n.traceWorm(trace.KindWormGrant, trace.BlockInjection, w, w.Source(), 0, 0, "")
			}
			n.traceWorm(trace.KindWormHold, uint8(w.VN), w, w.Source(), 0, uint64(w.Source()), "")
		}
		w.lanes[0] = lane
		n.schedWorm(n.Cfg.InjectDelay, n.fnHeaderAt, w, 0)
		return
	}
	if n.Rec != nil {
		n.traceWorm(trace.KindWormResume, 0, w, w.Path[ii], uint64(ii), 0, "")
		n.traceWorm(trace.KindWormHold, uint8(w.VN), w, w.Path[ii], uint64(ii), uint64(w.Path[ii]), "")
	}
	// The parked copy occupies the injection channel as index i; the lane
	// knows its set, so releaseIndex releases the right channel.
	w.lanes[ii] = lane
	w.heldFrom = ii
	n.schedWorm(n.Cfg.InjectDelay, n.fnRequestNext, w, i)
}

// headerAt runs when w's header flit arrives at the router of Path[i]
// (for i == 0, when it enters the source router from the interface).
//
//simcheck:noalloc
func (n *Network) headerAt(w *Worm, i int) {
	if w.state == wormKilled {
		return
	}
	w.state = wormMoving
	w.hopIdx = i
	n.beacon.Mark()
	if n.Rec != nil {
		n.traceWorm(trace.KindWormHead, uint8(w.VN), w, w.Path[i], uint64(i), 0, "")
	}
	delay := n.Cfg.RouterDelay
	if n.Fault != nil {
		if i > 0 && w.Expendable && n.Fault.DropWorm(w, i, n.Engine.Now()) {
			n.stats.Dropped++
			if n.Rec != nil {
				n.traceWorm(trace.KindFaultDrop, 0, w, w.Path[i], uint64(i), 0, "")
			}
			n.killWorm(w)
			return
		}
		if extra := n.Fault.RouterPenalty(w, i, n.Engine.Now()); extra > 0 {
			n.stats.RouterSlowCycles += uint64(extra)
			if n.Rec != nil {
				n.traceWorm(trace.KindFaultSlow, 0, w, w.Path[i], uint64(i), uint64(extra), "")
			}
			delay += extra
		}
	}
	n.schedWorm(delay, n.fnServiceNode, w, int32(i))
}

// serviceNode performs destination duties at Path[i] (absorb / reserve /
// collect) and then moves the header onward.
//
//simcheck:noalloc
func (n *Network) serviceNode(w *Worm, i int) {
	if w.state == wormKilled {
		return
	}
	last := len(w.Path) - 1
	if !w.Dest[i] || i == last || i == 0 {
		n.requestNext(w, i)
		return
	}
	switch w.Kind {
	case Multicast:
		// Forward-and-absorb: hold a consumption channel while the copy
		// streams to the node; released when the tail passes.
		n.acquireCons(w, i, actConsMulticast)
	case Reserve:
		n.acquireCons(w, i, actConsReserve)
	case Gather:
		n.gatherCollect(w, i)
	default:
		panic("network: unicast worm serviced at intermediate destination")
	}
}

// acquireCons competes for a consumption-channel token at Path[i]; act says
// how the worm continues once granted (see grantCons).
//
//simcheck:noalloc
func (n *Network) acquireCons(w *Worm, i int, act uint8) {
	w.state = wormBlocked
	pool := &n.cons[w.Path[i]]
	if !pool.tryAcquire() {
		if n.Rec != nil {
			n.traceWorm(trace.KindWormBlock, trace.BlockCons, w, w.Path[i], uint64(i), 0, "")
		}
		n.wormRef(w)
		pool.waiters.push(w, int32(i), act)
		return
	}
	n.grantCons(w, int32(i), pool, act, false)
}

// grantCons runs when w holds a consumption-channel token at Path[i]: the
// final drain (actConsFinal) or an intermediate absorb, after which reserve
// worms additionally claim an i-ack buffer entry.
//
//simcheck:noalloc
func (n *Network) grantCons(w *Worm, i int32, pool *consumptionPool, act uint8, wasBlocked bool) {
	if w.state == wormKilled {
		n.releaseCons(pool)
		return
	}
	ii := int(i)
	if wasBlocked && n.Rec != nil {
		n.traceWorm(trace.KindWormGrant, trace.BlockCons, w, w.Path[ii], uint64(ii), 0, "")
	}
	if act == actConsFinal {
		n.drain(w)
		return
	}
	w.consHeld = append(w.consHeld, consRef{idx: i, pool: pool})
	if act == actConsMulticast {
		w.state = wormMoving
		n.requestNext(w, ii)
		return
	}
	// actConsReserve: claim an i-ack buffer entry before moving on. The worm
	// stays blocked until iackReserved, so a wait on a full buffer file is
	// described as one.
	file := &n.iack[w.Path[ii]]
	if !file.reserve(w.TxnID) {
		if n.Rec != nil {
			n.traceWorm(trace.KindWormBlock, trace.BlockIAck, w, w.Path[ii], uint64(ii), 0, "")
		}
		n.wormRef(w)
		file.reserveWaiters.push(w, i, actIAckReserve)
		return
	}
	n.iackReserved(w, i, file, false)
}

// iackReserved continues a reserve worm after its i-ack buffer entry is
// allocated at Path[i].
//
//simcheck:noalloc
func (n *Network) iackReserved(w *Worm, i int32, file *iackFile, wasBlocked bool) {
	if w.state == wormKilled {
		// The worm died while its reservation was queued on a full buffer
		// file; free the freshly granted entry.
		if wt, ok := file.finish(w.TxnID); ok {
			n.dispatchReserve(file, wt)
		}
		return
	}
	if wasBlocked && n.Rec != nil {
		n.traceWorm(trace.KindWormGrant, trace.BlockIAck, w, w.Path[i], uint64(i), 0, "")
	}
	w.state = wormMoving
	n.requestNext(w, int(i))
}

// gatherCollect implements the i-gather pickup at an intermediate
// destination: proceed immediately when the i-ack is posted, otherwise
// stall in place (blocking mode) or park in the buffer's message field
// (VCT deferred-delivery mode).
//
//simcheck:noalloc
func (n *Network) gatherCollect(w *Worm, i int) {
	file := &n.iack[w.Path[i]]
	if ok, wt, granted := file.collect(w.TxnID); ok {
		if granted {
			n.dispatchReserve(file, wt)
		}
		n.requestNext(w, i)
		return
	}
	n.stats.GatherWait++
	if n.Rec != nil {
		n.traceWorm(trace.KindWormBlock, trace.BlockGather, w, w.Path[i], uint64(i), 0, "")
	}
	if n.Cfg.VCTDeferred {
		// Park: the worm is absorbed into the buffer entry, releasing every
		// channel it holds, and re-injected at this router when the local
		// ack posts.
		n.stats.VCTParks++
		w.state = wormDeferred
		if n.Rec != nil {
			n.traceWorm(trace.KindWormPark, 0, w, w.Path[i], uint64(i), 0, "")
		}
		now := n.Engine.Now()
		for w.heldFrom <= i {
			n.releaseIndex(w, w.heldFrom, now)
		}
		n.wormRef(w)
		file.await(w.TxnID, w, int32(i), true)
		return
	}
	w.state = wormBlocked
	n.wormRef(w)
	file.await(w.TxnID, w, int32(i), false)
}

// PostAck records node's invalidation acknowledgment for txn into the local
// i-ack buffer entry and wakes any gather worm waiting for it. Posts for
// aborted transactions (whose entries were purged) are absorbed; posts may
// also be lost outright by fault injection, leaving the entry unposted
// until the home node's timeout recovers the transaction.
//
//simcheck:noalloc
func (n *Network) PostAck(node topology.NodeID, txn uint64) {
	if n.abortedTxns[txn] {
		n.stats.StaleAcks++
		return
	}
	if n.Fault != nil && n.Fault.LoseAck(node, txn, n.Engine.Now()) {
		n.stats.LostAcks++
		if n.Rec != nil {
			n.Rec.Emit(trace.Event{At: n.Engine.Now(), Kind: trace.KindFaultAckLoss, Node: int32(node), Txn: txn})
		}
		return
	}
	if n.Rec != nil {
		n.Rec.Emit(trace.Event{At: n.Engine.Now(), Kind: trace.KindAckPost, Node: int32(node), Txn: txn})
	}
	file := &n.iack[node]
	e := file.post(txn)
	if e.gather == nil {
		return
	}
	w, i, parked := e.gather, int(e.gatherI), e.parked
	e.gather = nil
	if wt, ok := file.finish(txn); ok {
		n.dispatchReserve(file, wt)
	}
	if parked {
		n.reinjectGather(w)
	} else {
		if n.Rec != nil {
			n.traceWorm(trace.KindWormGrant, trace.BlockGather, w, w.Path[i], uint64(i), 0, "")
		}
		w.state = wormMoving
		n.requestNext(w, i)
	}
	n.wormUnref(w)
}

// reinjectGather re-launches a VCT-parked gather worm from the router where
// it was parked.
//
//simcheck:noalloc
func (n *Network) reinjectGather(w *Worm) {
	i := w.hopIdx
	inj := &n.injection[w.VN][w.Path[i]]
	lane := inj.tryAcquire(n.Engine.Now())
	if lane == nil {
		n.wormRef(w)
		inj.waiters.push(w, int32(i), actReinject)
		return
	}
	n.grantInjection(w, int32(i), lane, false, true)
}

// requestNext moves w's header from Path[i] toward Path[i+1], or begins the
// final drain when i is the last hop.
//
//simcheck:noalloc
func (n *Network) requestNext(w *Worm, i int) {
	if w.state == wormKilled {
		return
	}
	last := len(w.Path) - 1
	if i == last {
		w.state = wormBlocked
		pool := &n.cons[w.Path[i]]
		if !pool.tryAcquire() {
			if n.Rec != nil {
				n.traceWorm(trace.KindWormBlock, trace.BlockCons, w, w.Path[i], uint64(i), 0, "")
			}
			n.wormRef(w)
			pool.waiters.push(w, int32(i), actConsFinal)
			return
		}
		n.grantCons(w, int32(i), pool, actConsFinal, false)
		return
	}
	if n.Fault != nil {
		// A transient link failure: the header waits out the stall before
		// competing for the link's virtual channels. Consulted once per
		// (worm, hop); acquireLink does not re-ask.
		if stall := n.Fault.LinkStall(w, i, n.Engine.Now()); stall > 0 {
			n.stats.LinkStallCycles += uint64(stall)
			if n.Rec != nil {
				n.traceWorm(trace.KindFaultStall, trace.BlockStall, w, w.Path[i], uint64(i), uint64(stall), "")
			}
			w.state = wormBlocked
			n.schedWorm(stall, n.fnAcquireLink, w, int32(i))
			return
		}
	}
	n.acquireLink(w, i)
}

// acquireLink competes for the virtual-channel set from Path[i] to
// Path[i+1] and advances the header on grant.
//
//simcheck:noalloc
func (n *Network) acquireLink(w *Worm, i int) {
	if w.state == wormKilled {
		return
	}
	set := w.sets[i]
	w.state = wormBlocked
	lane := set.tryAcquire(n.Engine.Now())
	if lane == nil {
		if n.Rec != nil {
			n.traceWorm(trace.KindWormBlock, trace.BlockLink, w, w.Path[i], uint64(i), 0, "")
		}
		n.wormRef(w)
		set.waiters.push(w, int32(i), actLink)
		return
	}
	n.grantLink(w, int32(i), lane, false)
}

// grantLink runs when w is granted a lane on the link from Path[i] to
// Path[i+1]: the header advances and vacated channels release behind the
// tail.
//
//simcheck:noalloc
func (n *Network) grantLink(w *Worm, i int32, lane *channel, wasBlocked bool) {
	now := n.Engine.Now()
	if w.state == wormKilled {
		n.releaseLane(lane, now)
		return
	}
	ii := int(i)
	if n.Rec != nil {
		if wasBlocked {
			n.traceWorm(trace.KindWormGrant, trace.BlockLink, w, w.Path[ii], uint64(ii), 0, "")
		}
		n.traceWorm(trace.KindWormHold, uint8(w.VN), w, w.Path[ii+1], uint64(ii+1), uint64(w.Path[ii]), "")
	}
	w.state = wormMoving
	w.lanes[ii+1] = lane
	// Tail progress: with single-flit staging, the worm spans at most
	// Flits() channels; anything further back has been vacated.
	for w.heldFrom <= ii+1-w.Flits() {
		n.releaseIndex(w, w.heldFrom, now)
	}
	n.schedWorm(n.Cfg.FlitCycles, n.fnHeaderAt, w, i+1)
}

// dispatchVC resumes a worm granted a virtual-channel lane (the lane is
// already re-acquired by release's direct hand-off).
//
//simcheck:noalloc
func (n *Network) dispatchVC(wt waiter, lane *channel) {
	switch wt.act {
	case actInject:
		n.grantInjection(wt.w, wt.i, lane, true, false)
	case actReinject:
		n.grantInjection(wt.w, wt.i, lane, true, true)
	case actLink:
		n.grantLink(wt.w, wt.i, lane, true)
	default:
		panic("network: bad waiter action on channel set")
	}
	n.wormUnref(wt.w)
}

// releaseLane frees lane c of its own set and dispatches the set's next
// waiter, if any: an O(1) step that needs no path lookup.
//
//simcheck:noalloc
func (n *Network) releaseLane(c *channel, now sim.Time) {
	if wt, ok := c.set.release(c, now); ok {
		n.dispatchVC(wt, c)
	}
}

// dispatchCons resumes a worm granted a consumption-channel token.
//
//simcheck:noalloc
func (n *Network) dispatchCons(pool *consumptionPool, wt waiter) {
	n.grantCons(wt.w, wt.i, pool, wt.act, true)
	n.wormUnref(wt.w)
}

// releaseCons returns a consumption token and dispatches the next waiter,
// if any.
//
//simcheck:noalloc
func (n *Network) releaseCons(pool *consumptionPool) {
	if wt, ok := pool.release(); ok {
		n.dispatchCons(pool, wt)
	}
}

// dispatchReserve resumes a reserve worm whose queued i-ack buffer
// reservation was just unblocked by a freed entry.
//
//simcheck:noalloc
func (n *Network) dispatchReserve(file *iackFile, wt waiter) {
	if !file.reserve(wt.w.TxnID) {
		panic("network: i-ack entry hand-off failed")
	}
	n.iackReserved(wt.w, wt.i, file, true)
	n.wormUnref(wt.w)
}

// drain consumes the worm at its final destination. The consumption pool
// token is held until the tail is consumed; held channels release in tail
// order.
//
//simcheck:noalloc
func (n *Network) drain(w *Worm) {
	w.state = wormDraining
	if n.Rec != nil {
		n.traceWorm(trace.KindWormDrain, 0, w, w.Final(), uint64(len(w.Path)-1), 0, "")
	}
	start := n.Engine.Now()
	hops := sim.Time(w.Hops())
	flits := sim.Time(w.Flits())
	end := start + flits*n.Cfg.FlitCycles
	// Stagger channel releases as the tail crosses each remaining link.
	for j := w.heldFrom; j < len(w.Path); j++ {
		rel := end
		if behind := hops - sim.Time(j); behind < flits {
			rel = end - behind*n.Cfg.FlitCycles
		} else {
			rel = start
		}
		if rel < start {
			rel = start
		}
		n.schedWormAt(rel, n.fnDrainRel, w, int32(j))
	}
	n.schedWormAt(end, n.fnDrainEnd, w, 0)
}

//
//simcheck:noalloc
func (n *Network) finishWorm(w *Worm) {
	w.state = wormDone
	n.unregister(w)
	n.stats.Completed++
	n.beacon.Mark()
	if n.Rec != nil {
		n.traceWorm(trace.KindWormDone, trace.FlagFinal, w, w.Final(), uint64(len(w.Path)-1), 0, "")
	}
	n.OnDeliver(Delivery{Node: w.Final(), Worm: w, Final: true})
}

// unregister removes a retiring worm from the in-flight registry by moving
// the last entry into its slot.
//
//simcheck:noalloc
func (n *Network) unregister(w *Worm) {
	last := len(n.inFlight) - 1
	moved := n.inFlight[last]
	n.inFlight[w.slot-1] = moved
	moved.slot = w.slot
	n.inFlight[last] = nil
	n.inFlight = n.inFlight[:last]
	w.slot = 0
}

// releaseIndex releases w's channel index j (0 or a re-injection point =
// injection channel, otherwise the link into Path[j]) and performs the
// tail-pass duties at node j: delivering forward-and-absorb copies and
// freeing the consumption channel held there.
//
//simcheck:noalloc
func (n *Network) releaseIndex(w *Worm, j int, now sim.Time) {
	if j != w.heldFrom {
		panic("network: out-of-order channel release")
	}
	w.heldFrom++
	n.beacon.Mark()
	lane := w.lanes[j]
	n.releaseLane(lane, now)
	if n.Rec != nil {
		from := w.Path[j]
		if lane.set != &n.injection[w.VN][from] {
			from = w.Path[j-1]
		}
		n.traceWorm(trace.KindWormRelease, uint8(w.VN), w, w.Path[j], uint64(j), uint64(from), "")
	}
	w.lanes[j] = nil
	if j > 0 && j < len(w.Path)-1 && w.Dest[j] {
		for k := range w.consHeld {
			if int(w.consHeld[k].idx) != j {
				continue
			}
			pool := w.consHeld[k].pool
			w.consHeld = append(w.consHeld[:k], w.consHeld[k+1:]...)
			n.releaseCons(pool)
			n.stats.Copies++
			if n.Rec != nil {
				n.traceWorm(trace.KindWormDeliver, 0, w, w.Path[j], uint64(j), 0, "")
			}
			n.OnDeliver(Delivery{Node: w.Path[j], Worm: w, Final: false})
			break
		}
	}
}

// AvgLinkUtilization returns the mean busy fraction over all link channels
// up to the current time.
func (n *Network) AvgLinkUtilization() float64 {
	now := n.Engine.Now()
	var sum float64
	var count int
	for vn := range n.links {
		for s := range n.links[vn] {
			for _, c := range n.links[vn][s].chans {
				sum += c.utilization(now)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// PeakConsumptionUse returns the highest simultaneous consumption-channel
// occupancy observed at node.
func (n *Network) PeakConsumptionUse(node topology.NodeID) int {
	return n.cons[node].peak
}

// PeakIAckUse returns the highest simultaneous i-ack buffer occupancy
// observed at node.
func (n *Network) PeakIAckUse(node topology.NodeID) int {
	return n.iack[node].peakUsed
}

// Diagnose describes every in-flight worm and what it is waiting on — the
// tool to reach for when the event queue drains while Outstanding() > 0
// (deadlock). The output names the worm, its position on its path, and
// its blocking resource.
func (n *Network) Diagnose() string {
	if len(n.inFlight) == 0 {
		return "network: quiesced, no worms in flight"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "network: %d worm(s) in flight\n", len(n.inFlight))
	for _, w := range n.inFlightByID() {
		fmt.Fprintf(&b, "  worm %d (%v, %v vn) at hop %d/%d of %v->%v: %s\n",
			w.ID, w.Kind, w.VN, w.hopIdx, w.Hops(),
			n.Mesh.Coord(w.Source()), n.Mesh.Coord(w.Final()), n.describeWait(w))
	}
	return b.String()
}

// inFlightByID returns a copy of the in-flight registry in ascending worm
// ID (injection) order, the order Diagnose reports and AbortTxn kills in.
func (n *Network) inFlightByID() []*Worm {
	ws := append([]*Worm(nil), n.inFlight...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	return ws
}

// describeWait names the resource a worm is blocked on.
func (n *Network) describeWait(w *Worm) string {
	switch w.state {
	case wormDone:
		return "done (not blocked)"
	case wormKilled:
		return "killed (removed from the fabric)"
	case wormQueued, wormInjecting:
		return "waiting for its injection channel"
	case wormMoving:
		return "moving"
	case wormDraining:
		return "draining at its final destination"
	case wormDeferred:
		return fmt.Sprintf("VCT-parked at %v awaiting the local i-ack post",
			n.Mesh.Coord(w.Path[w.hopIdx]))
	case wormBlocked:
		i := w.hopIdx
		node := w.Path[i]
		if i == len(w.Path)-1 {
			return fmt.Sprintf("waiting for a consumption channel at %v", n.Mesh.Coord(node))
		}
		if w.Kind == Gather && w.Dest[i] {
			return fmt.Sprintf("gather stalled at %v: i-ack for txn %d not posted",
				n.Mesh.Coord(node), w.TxnID)
		}
		if w.Kind == Reserve && w.Dest[i] && len(w.consHeld) > 0 &&
			w.consHeld[len(w.consHeld)-1].idx == int32(i) && n.iack[node].find(w.TxnID) < 0 {
			// Absorbed here (the consumption channel is held) but not yet
			// granted an i-ack entry: queued on a full buffer file.
			return fmt.Sprintf("waiting for an i-ack buffer entry at %v", n.Mesh.Coord(node))
		}
		return fmt.Sprintf("waiting at %v for the link toward %v (or a consumption channel / i-ack buffer there)",
			n.Mesh.Coord(node), n.Mesh.Coord(w.Path[i+1]))
	}
	return "unknown state"
}

// LinkUtilization returns the mean busy fraction of the virtual-channel
// lanes on node's outgoing link through port on vn, up to the current
// time. It returns 0 for absent links (mesh edges, local port).
func (n *Network) LinkUtilization(node topology.NodeID, port topology.Port, vn VN) float64 {
	if port < topology.East || port > topology.South {
		return 0
	}
	set := n.link(vn, node, port)
	if set.chans == nil {
		return 0
	}
	now := n.Engine.Now()
	var sum float64
	for i := range set.chans {
		sum += set.chans[i].utilization(now)
	}
	return sum / float64(len(set.chans))
}

// DimUtilization returns, per node, the mean utilization of its outgoing
// links in one dimension ('x' = east/west, 'y' = north/south) on vn —
// the congestion map of the paper's hot-spot discussion.
func (n *Network) DimUtilization(vn VN, dim byte) []float64 {
	out := make([]float64, n.Mesh.Nodes())
	for id := 0; id < n.Mesh.Nodes(); id++ {
		var ports []topology.Port
		if dim == 'x' {
			ports = []topology.Port{topology.East, topology.West}
		} else {
			ports = []topology.Port{topology.North, topology.South}
		}
		var sum float64
		var cnt int
		for _, p := range ports {
			if n.link(vn, topology.NodeID(id), p).chans != nil {
				sum += n.LinkUtilization(topology.NodeID(id), p, vn)
				cnt++
			}
		}
		if cnt > 0 {
			out[id] = sum / float64(cnt)
		}
	}
	return out
}

package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/trace"
)

// pendingOp tracks one processor's outstanding memory operation. Under
// sequential consistency each processor blocks on its miss, so there is at
// most one per node.
type pendingOp struct {
	block directory.BlockID
	write bool
	issue uint64 // sim.Time, kept raw to avoid import loop in tests
	done  func()
	// tok is the operation's trace token; zero when tracing is off.
	tok uint64
	// afterFill holds protocol work that raced ahead of the reply (e.g. a
	// fetchInval overtaking the writeReply on the other virtual network)
	// and must wait until the fill lands — the "window of vulnerability"
	// closing of [23].
	afterFill []func()
	// squashed marks a read miss caught while outstanding by a recovery
	// retry, or by any invalidation under bounded caches: the fill's data
	// was serialized at the home before the invalidating write, so the
	// load consumes it — ordered just before that write — but the line is
	// not installed. Otherwise invalidations never squash; they defer
	// through afterFill instead (see deferOrSquash).
	squashed bool
	// hasCopy carries the upgrading-write snapshot (Shared copy held at
	// issue) from the cache-access stage to the request send.
	hasCopy bool
}

// newOp returns a pendingOp from the free pool (or a fresh one).
//
//simcheck:pool acquire
//simcheck:noalloc
func (m *Machine) newOp() *pendingOp {
	if k := len(m.freeOps) - 1; k >= 0 {
		op := m.freeOps[k]
		m.freeOps[k] = nil
		m.freeOps = m.freeOps[:k]
		return op
	}
	//simcheck:allow noalloc -- cold pool fill; steady state reuses freeOps
	return &pendingOp{}
}

// freeOp recycles a completed operation (hit, or after its fill and
// deferred afterFill work have run). The pool is bounded.
//
//simcheck:pool release
//simcheck:noalloc
func (m *Machine) freeOp(op *pendingOp) {
	for j := range op.afterFill {
		op.afterFill[j] = nil
	}
	af := op.afterFill[:0]
	*op = pendingOp{}
	op.afterFill = af
	if len(m.freeOps) < 1024 {
		m.freeOps = append(m.freeOps, op)
	}
}

// finishHit completes an operation that hit in the cache (or the store
// buffer) at the end of its cache-access stage.
//
//simcheck:noalloc
func (m *Machine) finishHit(n topology.NodeID, op *pendingOp) {
	if m.Rec != nil {
		m.recOp(trace.KindOpDone, trace.FlagHit, n, op.tok, op.block)
	}
	done := op.done
	m.freeOp(op)
	done()
}

// op returns node n's outstanding operation on block b, or nil.
//
//simcheck:noalloc
func (m *Machine) op(n topology.NodeID, b directory.BlockID) *pendingOp {
	op, _ := m.ops.Get(int32(n), uint64(b))
	return op
}

// addOp records op as outstanding at node n. Under sequential consistency
// a node has at most one; under release consistency one read plus any
// number of buffered writes, each to a distinct block.
//
//simcheck:noalloc
func (m *Machine) addOp(n topology.NodeID, op *pendingOp) {
	if m.op(n, op.block) != nil {
		panic(fmt.Sprintf("coherence: node %d issued a second operation on block %d", n, op.block))
	}
	if m.Params.Consistency == SequentialConsistency && m.opCount[n] != 0 {
		panic(fmt.Sprintf("coherence: node %d issued a second outstanding operation under SC", n))
	}
	m.ops.Put(int32(n), uint64(op.block), op)
	m.opCount[n]++
}

//
//simcheck:noalloc
func (m *Machine) removeOp(n topology.NodeID, b directory.BlockID) {
	m.ops.Delete(int32(n), uint64(b))
	m.opCount[n]--
}

// Read performs a shared-memory read by node n of block b, invoking done
// when the value is usable. Reads hit in Shared or Modified lines; under
// release consistency a read of a block with a buffered write outstanding
// by the same node is forwarded from the store buffer.
//
//simcheck:noalloc
func (m *Machine) Read(n topology.NodeID, b directory.BlockID, done func()) {
	issue := m.Engine.Now()
	var tok uint64
	if m.Rec != nil {
		tok = m.newOpTok()
		m.recOp(trace.KindOpIssue, 0, n, tok, b)
	}
	op := m.newOp()
	op.block, op.write, op.issue, op.done, op.tok = b, false, uint64(issue), done, tok
	m.server(n).doCall(m.Params.CacheAccess, m.fnReadIssue, op, int32(n))
}

// Write performs a shared-memory write by node n to block b, invoking done
// when exclusive ownership is granted (sequential consistency: the write
// completes only after every sharer has acknowledged invalidation).
//
//simcheck:noalloc
func (m *Machine) Write(n topology.NodeID, b directory.BlockID, done func()) {
	issue := m.Engine.Now()
	var tok uint64
	if m.Rec != nil {
		tok = m.newOpTok()
		m.recOp(trace.KindOpIssue, trace.FlagWrite, n, tok, b)
	}
	op := m.newOp()
	op.block, op.write, op.issue, op.done, op.tok = b, true, uint64(issue), done, tok
	m.server(n).doCall(m.Params.CacheAccess, m.fnWriteIssue, op, int32(n))
}

// WriteAsync performs a release-consistency write: issued fires as soon as
// the write is buffered (the processor continues), while the ownership
// acquisition and invalidation transaction proceed in the background. Use
// Fence to await completion of all of a node's buffered writes. The
// machine must be configured with ReleaseConsistency.
func (m *Machine) WriteAsync(n topology.NodeID, b directory.BlockID, issued func()) {
	if m.Params.Consistency != ReleaseConsistency {
		panic("coherence: WriteAsync requires ReleaseConsistency")
	}
	issue := m.Engine.Now()
	var tok uint64
	if m.Rec != nil {
		tok = m.newOpTok()
		m.recOp(trace.KindOpIssue, trace.FlagWrite, n, tok, b)
	}
	// The write enters the store buffer at issue time, so a Fence posted in
	// the same cycle already covers it.
	m.pendingWrites(n).count++
	m.server(n).do(m.Params.CacheAccess, func() {
		if m.caches[n].Lookup(b, true) {
			if m.Rec != nil {
				m.recOp(trace.KindOpDone, trace.FlagHit, n, tok, b)
			}
			m.retireBufferedWrite(n)
			issued()
			return
		}
		if op := m.op(n, b); op != nil && op.write {
			// Write coalesces into the already-buffered write to the block.
			if m.Rec != nil {
				m.recOp(trace.KindOpDone, trace.FlagHit, n, tok, b)
			}
			m.retireBufferedWrite(n)
			issued()
			return
		}
		if m.Rec != nil {
			m.recOp(trace.KindOpMiss, trace.FlagWrite, n, tok, b)
		}
		hasCopy := m.caches[n].State(b) == cache.SharedLine
		m.addOp(n, &pendingOp{block: b, write: true, issue: uint64(issue), done: func() {
			m.retireBufferedWrite(n)
		}, tok: tok})
		m.server(n).do(m.Params.SendOccupancy, func() {
			m.send(writeReq, n, m.Home(b), &msg{typ: writeReq, block: b, from: n, hasCopy: hasCopy, tok: tok})
		})
		issued()
	})
}

// retireBufferedWrite removes one write from node n's store buffer and
// resumes a waiting Fence when the buffer drains.
func (m *Machine) retireBufferedWrite(n topology.NodeID) {
	pw := m.pendingWrites(n)
	if pw.count <= 0 {
		panic("coherence: store buffer underflow")
	}
	pw.count--
	if pw.count == 0 && pw.fence != nil {
		resume := pw.fence
		pw.fence = nil
		resume()
	}
}

// Fence blocks node n until every buffered write has been granted (a
// release operation under release consistency).
func (m *Machine) Fence(n topology.NodeID, done func()) {
	pw := m.pendingWrites(n)
	if pw.count == 0 {
		done()
		return
	}
	if pw.fence != nil {
		panic("coherence: second concurrent Fence on one node")
	}
	pw.fence = done
}

// writeBuffer tracks a node's outstanding release-consistency writes.
type writeBuffer struct {
	count int
	fence func()
}

func (m *Machine) pendingWrites(n topology.NodeID) *writeBuffer {
	if m.writeBufs == nil {
		m.writeBufs = make([]writeBuffer, m.Mesh.Nodes())
	}
	return &m.writeBufs[n]
}

// deliver is the network's delivery callback: it dispatches every worm
// arrival to the protocol handler for its message type.
//
//simcheck:noalloc
func (m *Machine) deliver(d network.Delivery) {
	pm := d.Worm.Tag.(*msg)
	m.Metrics.MsgsRecv[d.Node]++
	if m.Rec != nil {
		flag := trace.FlagNone
		if d.Final {
			flag = trace.FlagFinal
		}
		m.recMsg(trace.KindMsgRecv, flag, d.Node, d.Worm.ID, pm, 0)
	}
	switch pm.typ {
	case readReq, writeReq:
		m.server(d.Node).doCall(m.Params.RecvOccupancy, m.fnHomeRecv, pm, 0)
	case inval:
		m.sharerInval(d.Node, pm, d.Final)
	case invalAck:
		m.server(d.Node).doCall(m.Params.RecvOccupancy, m.fnRecvInvalAck, pm, 0)
	case gatherAck:
		m.server(d.Node).doCall(m.Params.RecvOccupancy, m.fnRecvGatherAck, pm, 0)
	case fetchReq, fetchInval:
		m.ownerFetch(d.Node, pm)
	case fetchReply:
		m.homeFetchReply(d.Node, pm)
	case readReply, writeReply:
		m.requesterReply(d.Node, pm)
	case writeback:
		m.homeWriteback(d.Node, pm)
	default:
		panic("coherence: unhandled message " + pm.typ.String())
	}
}

// homeHandle runs a read or write request at the home once the block is
// free of earlier transactions. The block is "busy" from here until
// releaseBlock.
//
//simcheck:noalloc
func (m *Machine) homeHandle(home topology.NodeID, pm *msg) {
	m.server(home).doCall(m.Params.DirLookup, m.fnHomeLookup, pm, int32(home))
}

func (m *Machine) homeRead(home topology.NodeID, e *directory.Entry, pm *msg) {
	b, requester := pm.block, pm.from
	switch e.State {
	case directory.Uncached, directory.Shared:
		e.State = directory.Shared
		e.Sharers.Set(requester)
		m.server(home).doCall(m.Params.MemAccess+m.Params.SendOccupancy, m.fnHomeReadReply, pm, int32(home))
	case directory.Exclusive:
		if e.Owner == requester {
			// The owner re-requesting can only mean its copy raced away via
			// writeback; serve it like an uncached read once the writeback
			// lands. Simplest consistent action: treat as uncached.
			e.State = directory.Shared
			e.Sharers.Reset()
			e.Sharers.Set(requester)
			m.server(home).doCall(m.Params.MemAccess+m.Params.SendOccupancy, m.fnHomeReadReply, pm, int32(home))
			return
		}
		e.State = directory.Waiting
		m.setHomeOp(b, &homeOp{requester: requester, write: false, owner: e.Owner})
		m.freeMsg(pm)
		m.server(home).do(m.Params.SendOccupancy, func() {
			m.send(fetchReq, home, e.Owner,
				&msg{typ: fetchReq, block: b, from: requester, ownGen: e.OwnGen})
		})
	default:
		panic("coherence: homeRead in state " + e.State.String())
	}
}

func (m *Machine) homeWrite(home topology.NodeID, e *directory.Entry, pm *msg) {
	b, requester := pm.block, pm.from
	switch e.State {
	case directory.Uncached:
		m.grantWrite(home, pm, true)
	case directory.Exclusive:
		if e.Owner == requester {
			m.grantWrite(home, pm, false)
			return
		}
		e.State = directory.Waiting
		m.setHomeOp(b, &homeOp{requester: requester, write: true, owner: e.Owner})
		m.freeMsg(pm)
		m.server(home).do(m.Params.SendOccupancy, func() {
			m.send(fetchInval, home, e.Owner,
				&msg{typ: fetchInval, block: b, from: requester, ownGen: e.OwnGen})
		})
		return
	case directory.Shared:
		m.startInval(home, e, pm)
	default:
		panic("coherence: homeWrite in state " + e.State.String())
	}
}

// grantWrite grants write request pm exclusive ownership once the home's
// controller has paid for the send (and the memory read, withData).
//
//simcheck:noalloc
func (m *Machine) grantWrite(home topology.NodeID, pm *msg, withData bool) {
	cost := m.Params.SendOccupancy
	if withData {
		cost += m.Params.MemAccess
	}
	m.server(home).doCall(cost, m.fnGrantWrite, pm, int32(home))
}

// deferSafe reports whether a directory-targeted invalidation may defer
// past a pending read's fill (the afterFill remedy). The deferral rests
// on one implication: node listed in the directory snapshot AND read op
// pending ⟹ that read was served and its fill is in flight on the reply
// network, so the deferred acknowledgment always unblocks. Bounded caches
// break the implication by letting presence bits go stale under a pending
// miss, turning the deferral into a deadlock: a Shared victim is evicted
// silently, the presence bit survives, and the node's re-request can be
// queued at the home behind the very transaction whose invalidation we
// would defer. With bounded caches sharers fall back to the always-safe
// squash remedy instead.
func (m *Machine) deferSafe() bool {
	return m.Params.CacheLines == 0
}

// deferOrSquash is the one stale-fill rule: what an invalidation of b
// arriving at n does about n's own outstanding read of b. Such an
// invalidation overtook the read's reply (virtual networks are unordered
// relative to each other): handling it now and then filling would install
// a stale Shared copy after the writer's grant. Two remedies, chosen by
// what can be proved about the fill:
//
// Directory-targeted invalidation (the common case): the home snapshotted
// n from the presence vector, so it served the read before this
// transaction started and the fill is in flight on the reply network — it
// cannot be queued behind the transaction. The caller defers its whole
// invalidation (and the acknowledgment) until the fill lands: install,
// then invalidate, then acknowledge. The race closes invisibly — the node
// ends uncached and the write waits for the ack, exactly as if the fill
// had beaten the invalidation. deferOrSquash returns the read, and the
// caller appends its continuation to the read's afterFill.
//
// Recovery retries (targeted false) can reach a node whose request is
// still *queued* at the home behind this very transaction, and deferring
// the ack would then deadlock. So the miss is squashed instead:
// acknowledge now, and when the reply lands consume its data without
// installing the line (see requesterReply for why that load is still
// legal). Bounded caches void the targeted-implies-served proof the same
// way — see deferSafe — and also squash. deferOrSquash then returns nil,
// as it does when no read is pending, and the caller invalidates now.
//
// Writes are exempt from both: a pending writer is never a target of its
// own transaction, and another writer's fill installs Modified via its own
// grant, never a stale Shared copy.
func (m *Machine) deferOrSquash(n topology.NodeID, b directory.BlockID, targeted bool) *pendingOp {
	op := m.op(n, b)
	if op == nil || op.write {
		return nil
	}
	if targeted && m.deferSafe() {
		return op
	}
	if !op.squashed {
		op.squashed = true
		if m.OnSquash != nil {
			m.OnSquash(n, b)
		}
	}
	return nil
}

// sharerInval handles an invalidation arriving at a sharer, under any
// framework: unicast (UI-UA), multicast copy (MI-UA, BR), or i-reserve
// copy / final (MI-MA).
func (m *Machine) sharerInval(n topology.NodeID, pm *msg, final bool) {
	if op := m.deferOrSquash(n, pm.block, !pm.retry); op != nil {
		op.afterFill = append(op.afterFill, func() { m.sharerInvalNow(n, pm, final) })
		return
	}
	m.sharerInvalNow(n, pm, final)
}

// sharerInvalNow performs the sharer-side invalidation work: drop the copy
// and acknowledge through the scheme's framework. Split
// from sharerInval so a deferred invalidation can run verbatim after the
// fill it raced.
func (m *Machine) sharerInvalNow(n topology.NodeID, pm *msg, final bool) {
	fn := m.fnSharerInvalMid
	if final {
		fn = m.fnSharerInvalFinal
	}
	m.server(n).doCall(m.Params.RecvOccupancy+m.Params.CacheInvalidate, fn, pm, int32(n))
}

// ownerFetch handles fetchReq (downgrade) and fetchInval (invalidate) at
// the current owner.
func (m *Machine) ownerFetch(n topology.NodeID, pm *msg) {
	if op := m.op(n, pm.block); op != nil && pm.ownGen != m.ownGenOf(n, pm.block) {
		// The fetch is stamped with a newer ownership generation than the
		// copy we last installed: our own grant for this block is in flight
		// and the fetch overtook it (virtual networks are unordered).
		// Handle it once the fill completes. A generation *match* means the
		// opposite — we are the recorded owner from an earlier tenure, our
		// copy is gone (evicted, writeback in flight) and our new request
		// is still queued at the home behind this very transaction, so
		// waiting for a fill would deadlock; fall through and answer from
		// the writeback buffer instead.
		op.afterFill = append(op.afterFill, func() { m.ownerFetch(n, pm) })
		return
	}
	m.server(n).do(m.Params.RecvOccupancy+m.Params.CacheAccess, func() {
		if m.caches[n].State(pm.block) == cache.ModifiedLine {
			if pm.typ == fetchInval {
				m.caches[n].Invalidate(pm.block)
			} else {
				m.caches[n].Downgrade(pm.block)
			}
		}
		// If the line is already gone a writeback is in flight; the data
		// logically comes from the writeback buffer.
		m.server(n).do(m.Params.SendOccupancy, func() {
			home := m.Home(pm.block)
			m.send(fetchReply, n, home, &msg{typ: fetchReply, block: pm.block, from: pm.from})
		})
	})
}

// homeFetchReply finishes a dirty-block transaction at the home.
func (m *Machine) homeFetchReply(home topology.NodeID, pm *msg) {
	m.server(home).do(m.Params.RecvOccupancy+m.Params.MemAccess, func() {
		op := m.takeHomeOp(pm.block)
		e := m.dirs[home].Lookup(pm.block)
		if op.write {
			e.State = directory.Exclusive
			e.Owner = op.requester
			e.Sharers.Reset()
			e.OwnGen++
			m.server(home).do(m.Params.SendOccupancy, func() {
				m.send(writeReply, home, op.requester,
					&msg{typ: writeReply, block: pm.block, from: op.requester, ownGen: e.OwnGen})
				m.releaseBlock(pm.block)
			})
			return
		}
		e.State = directory.Shared
		e.Sharers.Reset()
		e.Sharers.Set(op.owner)
		e.Sharers.Set(op.requester)
		m.server(home).do(m.Params.SendOccupancy, func() {
			m.send(readReply, home, op.requester, &msg{typ: readReply, block: pm.block, from: op.requester})
			m.releaseBlock(pm.block)
		})
	})
}

// requesterReply completes the processor's outstanding miss.
func (m *Machine) requesterReply(n topology.NodeID, pm *msg) {
	m.server(n).doCall(m.Params.RecvOccupancy+m.Params.CacheAccess, m.fnRequesterReply, pm, int32(n))
}

// initHandlers binds the hot-path protocol handlers once per machine: each
// is a single closure over m, scheduled through server.doCall with the
// message as its argument, so per-delivery dispatch allocates nothing.
// Handlers that are the terminal consumer of a single-delivery message
// recycle it with freeMsg; see freeMsg for the aliasing rules.
func (m *Machine) initHandlers() {
	//simcheck:noalloc
	m.fnReadIssue = func(a any, i int32) {
		op := a.(*pendingOp)
		n := topology.NodeID(i)
		b := op.block
		if prev := m.op(n, b); prev != nil && prev.write {
			// Store-buffer forwarding: our own pending write holds the
			// value. This must be checked before the cache: an upgrading
			// write leaves the old Shared copy in place while buffered, and
			// a read served from that line would see pre-write data —
			// breaking same-location program order.
			m.finishHit(n, op)
			return
		}
		if m.caches[n].Lookup(b, false) {
			m.finishHit(n, op)
			return
		}
		if m.Rec != nil {
			m.recOp(trace.KindOpMiss, 0, n, op.tok, b)
		}
		m.addOp(n, op)
		m.server(n).doCall(m.Params.SendOccupancy, m.fnSendReadReq, op, int32(n))
	}
	//simcheck:noalloc
	m.fnSendReadReq = func(a any, i int32) {
		op := a.(*pendingOp)
		n := topology.NodeID(i)
		rq := m.newMsg()
		rq.typ, rq.block, rq.from, rq.tok = readReq, op.block, n, op.tok
		m.send(readReq, n, m.Home(op.block), rq)
	}
	//simcheck:noalloc
	m.fnWriteIssue = func(a any, i int32) {
		op := a.(*pendingOp)
		n := topology.NodeID(i)
		b := op.block
		if m.caches[n].Lookup(b, true) {
			m.finishHit(n, op)
			return
		}
		if m.Rec != nil {
			m.recOp(trace.KindOpMiss, trace.FlagWrite, n, op.tok, b)
		}
		op.hasCopy = m.caches[n].State(b) == cache.SharedLine
		m.addOp(n, op)
		m.server(n).doCall(m.Params.SendOccupancy, m.fnSendWriteReq, op, int32(n))
	}
	//simcheck:noalloc
	m.fnSendWriteReq = func(a any, i int32) {
		op := a.(*pendingOp)
		n := topology.NodeID(i)
		rq := m.newMsg()
		rq.typ, rq.block, rq.from, rq.hasCopy, rq.tok = writeReq, op.block, n, op.hasCopy, op.tok
		m.send(writeReq, n, m.Home(op.block), rq)
	}
	m.fnTxnDeadline = func(a any, _ int32) { m.txnDeadline(a.(*invalTxn)) }
	// fnSendGroup sends group i of a transaction's plan once the home's
	// controller has paid its SendOccupancy, and releases the task's
	// reference to the transaction.
	//simcheck:noalloc
	m.fnSendGroup = func(a any, i int32) {
		txn, gi := a.(*invalTxn), int(i)
		switch {
		case txn.rec && (txn.gen != 0 || txn.completed):
			// The deadline fired before this first-generation send even
			// left the controller; the retry already re-covers its sharers
			// with unicast invals.
		case m.Params.Scheme == grouping.UIUA:
			m.sendUnicastInval(txn, gi, txn.groups[gi].Members[0])
		default:
			m.sendGroup(txn, gi)
		}
		m.releaseTxn(txn)
	}
	// fnGrantWrite grants write request a exclusive ownership at home i
	// and frees the request.
	//simcheck:noalloc
	m.fnGrantWrite = func(a any, i int32) {
		pm, home := a.(*msg), topology.NodeID(i)
		b := pm.block
		e := m.dirs[home].Lookup(b)
		e.State = directory.Exclusive
		e.Owner = pm.from
		e.Sharers.Reset()
		e.OwnGen++
		reply := m.newMsg()
		reply.typ, reply.block, reply.from, reply.ownGen = writeReply, b, pm.from, e.OwnGen
		m.send(writeReply, home, pm.from, reply)
		m.freeMsg(pm)
		m.releaseBlock(b)
	}
	//simcheck:noalloc
	m.fnHomeRecv = func(a any, _ int32) {
		pm := a.(*msg)
		q := m.queueFor(pm.block)
		if q.busy {
			q.queue.Push(pm)
			return
		}
		q.busy = true
		m.homeHandle(m.homes.Home(pm.block), pm)
	}
	//simcheck:noalloc
	m.fnHomeLookup = func(a any, i int32) {
		pm := a.(*msg)
		home := topology.NodeID(i)
		e := m.dirs[home].Lookup(pm.block)
		if m.Rec != nil {
			m.recMsg(trace.KindDirDone, 0, home, 0, pm, 0)
		}
		if pm.typ == readReq {
			m.homeRead(home, e, pm)
		} else {
			m.homeWrite(home, e, pm)
		}
	}
	//simcheck:noalloc
	m.fnHomeReadReply = func(a any, i int32) {
		pm := a.(*msg)
		b, requester, home := pm.block, pm.from, topology.NodeID(i)
		reply := m.newMsg()
		reply.typ, reply.block, reply.from = readReply, b, requester
		m.send(readReply, home, requester, reply)
		m.releaseBlock(b)
		m.freeMsg(pm)
	}
	//simcheck:noalloc
	m.fnRecvInvalAck = func(a any, _ int32) {
		pm := a.(*msg)
		txn := pm.txn
		if txn.rec {
			txn.sharerAcked(m, pm.from)
		} else {
			txn.ackArrived(m)
		}
		m.freeMsg(pm)
		m.releaseTxn(txn)
	}
	//simcheck:noalloc
	m.fnRecvGatherAck = func(a any, _ int32) {
		pm := a.(*msg)
		txn := pm.txn
		if txn.rec {
			txn.groupAcked(m, pm.groupIdx)
		} else {
			txn.ackArrived(m)
		}
		m.freeMsg(pm)
		m.releaseTxn(txn)
	}
	// sharerInvalBody is the sharer-side invalidation work previously
	// inlined in sharerInvalNow; pm is the transaction's inval payload
	// (aliased by every delivery of a multidestination worm), freed with
	// the transaction. The delivery's reference to the transaction is
	// released here, or by the ack or gather send the body schedules.
	//simcheck:noalloc
	sharerInvalBody := func(pm *msg, n topology.NodeID, final bool) {
		txn := pm.txn
		m.caches[n].Invalidate(pm.block)
		if pm.retry || !m.Params.Scheme.GatherAck() {
			// Unicast acknowledgment: the scheme's normal framework, or the
			// recovery fallback — retried sharers always answer with a
			// unicast ack so a retried MI-MA transaction completes on the
			// UI-UA machinery. Re-invalidating an already-invalid line and
			// re-acking an already-confirmed sharer are both no-ops.
			m.server(n).doCall(m.Params.SendOccupancy, m.fnSendInvalAck, pm, int32(n))
			return
		}
		if final {
			// Last member of the group: launch the i-gather worm — unless
			// the home gave up on this generation while the inval was in
			// flight; the retry's unicast invals re-cover the group and the
			// purged i-ack entries make a stale gather unlaunchable.
			m.server(n).doCall(m.Params.SendOccupancy, m.fnSendGather, pm, int32(n))
			return
		}
		// Intermediate member: post the ack into the local i-ack buffer
		// entry the reserve worm left behind; no outgoing message at all —
		// the point of the MI-MA framework. (Posts for aborted transactions
		// are absorbed by the network.)
		m.Net.PostAck(n, txn.id)
		m.releaseTxn(txn)
	}
	//simcheck:noalloc
	m.fnSharerInvalMid = func(a any, i int32) {
		sharerInvalBody(a.(*msg), topology.NodeID(i), false)
	}
	//simcheck:noalloc
	m.fnSharerInvalFinal = func(a any, i int32) {
		sharerInvalBody(a.(*msg), topology.NodeID(i), true)
	}
	//simcheck:noalloc
	m.fnSendInvalAck = func(a any, i int32) {
		pm := a.(*msg)
		n := topology.NodeID(i)
		txn := pm.txn
		ack := m.newMsg()
		ack.typ, ack.block, ack.from, ack.txn = invalAck, pm.block, n, txn
		txn.refs++
		m.send(invalAck, n, txn.home, ack)
		m.releaseTxn(txn)
	}
	//simcheck:noalloc
	m.fnSendGather = func(a any, _ int32) {
		pm := a.(*msg)
		txn := pm.txn
		if !txn.rec || (pm.gen == txn.gen && !txn.completed) {
			m.sendGather(txn, pm.groupIdx)
		}
		m.releaseTxn(txn)
	}
	//simcheck:noalloc
	m.fnRequesterReply = func(a any, i int32) {
		pm := a.(*msg)
		n := topology.NodeID(i)
		op := m.op(n, pm.block)
		if op == nil {
			panic("coherence: reply for no outstanding operation")
		}
		m.removeOp(n, pm.block)
		if op.squashed {
			// The line was invalidated while this fill was in flight. The
			// reply's data was serialized at the home before the
			// invalidating write, so the load itself still completes with
			// that value — ordered just before the write — but the line is
			// not installed: the directory no longer tracks this node, and
			// a late install would be exactly the untracked stale copy the
			// squash exists to prevent.
			if pm.typ == writeReply {
				panic("coherence: write fill squashed")
			}
		} else {
			state := cache.SharedLine
			if pm.typ == writeReply {
				state = cache.ModifiedLine
				m.setOwnGen(n, pm.block, pm.ownGen)
			}
			victim, vs, evicted := m.caches[n].Fill(pm.block, state)
			if evicted && vs == cache.ModifiedLine {
				//simcheck:allow noalloc -- modified-line eviction is the cold path
				m.server(n).do(m.Params.SendOccupancy, func() {
					m.send(writeback, n, m.Home(victim),
						&msg{typ: writeback, block: victim, from: n, ownGen: m.ownGenOf(n, victim)})
				})
			}
		}
		now := m.Engine.Now()
		if m.Rec != nil {
			flag := trace.FlagNone
			if pm.typ == writeReply {
				flag = trace.FlagWrite
			}
			m.recOp(trace.KindOpDone, flag, n, op.tok, pm.block)
		}
		if pm.typ == writeReply {
			m.Metrics.WriteMiss.AddTime(now - simTime(op.issue))
		} else {
			m.Metrics.ReadMiss.AddTime(now - simTime(op.issue))
		}
		op.done()
		for _, fn := range op.afterFill {
			fn()
		}
		m.freeOp(op)
		m.freeMsg(pm)
	}
}

// setOwnGen records the grant generation node n's Modified copy of b was
// installed under.
func (m *Machine) setOwnGen(n topology.NodeID, b directory.BlockID, gen uint64) {
	m.ownGens.Put(int32(n), uint64(b), gen)
}

// ownGenOf returns the grant generation to stamp on node n's writeback of
// block b.
func (m *Machine) ownGenOf(n topology.NodeID, b directory.BlockID) uint64 {
	gen, _ := m.ownGens.Get(int32(n), uint64(b))
	return gen
}

// homeWriteback retires a dirty eviction at the home. The generation check
// guards against the stale-writeback race: the owner evicts (writeback in
// flight), re-acquires exclusive ownership — directly, or via any chain of
// intervening owners — and only then does the old writeback land. Without
// the check the home would clear the entry while the node legitimately
// holds a Modified copy, silently uncaching a dirty block.
func (m *Machine) homeWriteback(home topology.NodeID, pm *msg) {
	m.server(home).do(m.Params.RecvOccupancy+m.Params.MemAccess, func() {
		e := m.dirs[home].Lookup(pm.block)
		if e.State == directory.Exclusive && e.Owner == pm.from && pm.ownGen == e.OwnGen {
			e.State = directory.Uncached
			e.Sharers.Reset()
		}
		// Otherwise a fetch crossed the writeback; the fetch path already
		// handled ownership.
	})
}

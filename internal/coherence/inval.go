package coherence

import (
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// simTime converts the raw tick stored in pendingOp back to sim.Time.
func simTime(v uint64) sim.Time { return sim.Time(v) }

// homeOp is the home-side context of an in-flight dirty-block fetch.
type homeOp struct {
	requester topology.NodeID
	write     bool
	owner     topology.NodeID
}

// setHomeOp records op as block b's home-side transaction context.
func (m *Machine) setHomeOp(b directory.BlockID, op *homeOp) {
	if _, ok := m.homeOps.Get(0, uint64(b)); ok {
		panic("coherence: overlapping home transactions on one block")
	}
	m.homeOps.Put(0, uint64(b), op)
}

// takeHomeOp removes and returns block b's home-side transaction context.
func (m *Machine) takeHomeOp(b directory.BlockID) *homeOp {
	op, ok := m.homeOps.Delete(0, uint64(b))
	if !ok {
		panic("coherence: no home transaction in flight")
	}
	return op
}

// invalTxn is one invalidation transaction: the home invalidates every
// sharer of a block and collects their acknowledgments before granting
// exclusive access to the requester.
//
// Transactions are pooled under one lifetime rule: a transaction is
// recycled, and the inval payloads it sent with it, once it has completed
// and its last reference is released. refs counts the references: one per
// scheduled controller task that will read it, one per expected delivery
// of each message that points at it (a multidestination worm is delivered
// once per member), and one for an armed deadline. Each is released where
// its handler chain ends. A reference whose delivery never comes (a worm a
// fault or an abort killed) is never released, and that transaction is left
// to the collector instead. Recycling clears the transaction and its
// payloads, so a stale use panics rather than reading a reused one.
type invalTxn struct {
	id    uint64
	block directory.BlockID
	home  topology.NodeID
	// req is the write request the transaction serves; completion hands it
	// to the grant (grantWrite), which frees it.
	req *msg
	// groups is the transaction's plan: plan.Groups, or the degraded
	// planner's groups on a failed fabric. Request worms copy their
	// group's path, so nothing outside the transaction reads the plan, and
	// its buffers are reused with the pooled transaction.
	groups []grouping.Group
	plan   grouping.Plan
	// payloads holds the inval messages the transaction sent (a
	// multicast payload is aliased by every delivery of its worm); they are
	// freed when the transaction is recycled.
	payloads []*msg
	refs     int
	// pendingAcks counts outstanding acknowledgments: one per sharer under
	// unicast-ack frameworks, one per group under MI-MA, plus one for the
	// home's own locally-invalidated copy if it had one.
	pendingAcks int
	sharers     int
	start       sim.Time
	homeMsgs    int
	// completed marks a transaction whose acknowledgments are all in and
	// whose grant is under way.
	completed bool

	// Recovery state, live only when rec is set (Params.Recovery.Enabled).
	// Completion is then judged by the unacked set draining, not by
	// pendingAcks counting: acknowledgment evidence is a set of confirmed
	// sharers, which makes duplicate acks (a retried sharer acking twice,
	// a pre-abort gather worm landing late) idempotent set deletions.
	rec bool
	// gen counts retry generations; in-flight messages stamped with an
	// older gen must not launch follow-on traffic (see sharerInval).
	gen     int
	retries int
	// unacked holds the remote sharers whose invalidation is unconfirmed.
	unacked map[topology.NodeID]bool
	// homePending marks the home's own copy as not yet invalidated; the
	// local invalidation crosses no network and needs no retry.
	homePending bool
	deadline    sim.Handle
}

// newTxn returns a cleared transaction from the free pool (or a fresh
// one).
//
//simcheck:pool acquire
//simcheck:noalloc
func (m *Machine) newTxn() *invalTxn {
	if k := len(m.freeTxns) - 1; k >= 0 {
		t := m.freeTxns[k]
		m.freeTxns[k] = nil
		m.freeTxns = m.freeTxns[:k]
		return t
	}
	//simcheck:allow noalloc -- cold pool fill; steady state reuses freeTxns
	return &invalTxn{}
}

// releaseTxn drops one reference to t. The last one, once t has
// completed, recycles t and frees its payloads; the plan's buffers, the
// payload list and the unacked set keep their capacity for the next
// transaction.
//
//simcheck:pool release
//simcheck:noalloc
func (m *Machine) releaseTxn(t *invalTxn) {
	t.refs--
	if t.refs < 0 {
		panic("coherence: invalidation transaction released more often than held")
	}
	if t.refs > 0 || !t.completed {
		return
	}
	for i, pm := range t.payloads {
		m.freeMsg(pm)
		t.payloads[i] = nil
	}
	clear(t.unacked)
	*t = invalTxn{plan: t.plan, payloads: t.payloads[:0], unacked: t.unacked}
	if len(m.freeTxns) < 1024 {
		m.freeTxns = append(m.freeTxns, t)
	}
}

// txnMsg returns a pooled inval payload owned by t: it is freed when t is
// recycled, not by any one delivery.
//
//simcheck:noalloc
func (m *Machine) txnMsg(t *invalTxn) *msg {
	pm := m.newMsg()
	pm.typ, pm.block, pm.from, pm.txn, pm.gen = inval, t.block, t.home, t, t.gen
	t.payloads = append(t.payloads, pm)
	return pm
}

// startInval begins the invalidation transaction for write request pm at
// its block's home. The directory entry must be in Shared state; once every
// acknowledgment has arrived, the write is granted (on the home's server
// context). If the requester is the only sharer no transaction is needed
// and the grant starts immediately.
func (m *Machine) startInval(home topology.NodeID, e *directory.Entry, pm *msg) {
	b, requester := pm.block, pm.from
	// remote is built in machine scratch: nothing below keeps it past this
	// call (the planner and the recovery set copy it).
	remote := m.scratchRemote[:0]
	homeCopy := false
	// Filter the presence bits in place: the write index never passes the
	// read index.
	for _, s := range e.Sharers.AppendNodes(remote) {
		switch s {
		case requester:
			// The upgrading writer keeps its copy until the grant.
		case home:
			homeCopy = true
		default:
			remote = append(remote, s)
		}
	}
	m.scratchRemote = remote
	if m.hard != nil && len(remote) > 0 {
		// Crashed sharers cannot acknowledge; invalidate them implicitly at
		// the directory instead of wasting a send-and-timeout round on each.
		// Dropping them from the remote list is sufficient: the entry's
		// sharer set is rebuilt wholesale when the transaction grants.
		now := m.Engine.Now()
		live := remote[:0]
		for _, s := range remote {
			if m.hard.CrashedAt(s, now) {
				m.implicitInval(s, b)
				continue
			}
			live = append(live, s)
		}
		remote = live
	}
	if len(remote) == 0 && !homeCopy {
		m.grantWrite(home, pm, !pm.hasCopy)
		return
	}
	e.State = directory.Waiting
	txn := m.newTxn()
	txn.id = m.newTxnID()
	txn.block, txn.home, txn.req = b, home, pm
	txn.sharers = len(remote)
	txn.start = m.Engine.Now()
	var fallback []topology.NodeID
	if len(remote) > 0 {
		if ds := m.deadNow(); !ds.Empty() && m.Params.Scheme.MultidestRequest() {
			// Degraded fabric: keep the groups whose paths survive, re-realize
			// severed ones around the failure, and invalidate the rest over
			// the unicast fallback path. (UI-UA needs no special casing: its
			// unicast sends detour in m.send.)
			txn.groups, fallback = grouping.GroupsAvoiding(m.Params.Scheme, m.Mesh, home, remote, ds)
			if len(fallback) > 0 {
				m.Metrics.Fallbacks++
			}
		} else {
			m.planner.Plan(&txn.plan, m.Params.Scheme, m.Mesh, home, remote)
			txn.groups = txn.plan.Groups
		}
	}
	if m.Rec != nil {
		m.recTxn(trace.KindTxnStart, txn, uint64(txn.sharers), uint64(len(txn.groups)))
	}
	if m.Params.Scheme.GatherAck() {
		// Fallback sharers answer with unicast acks even under MI-MA.
		txn.pendingAcks = len(txn.groups) + len(fallback)
	} else {
		txn.pendingAcks = len(remote)
	}
	txn.homeMsgs = len(txn.groups) + len(fallback) + txn.pendingAcks
	if m.Params.Recovery.Enabled {
		txn.rec = true
		if txn.unacked == nil {
			txn.unacked = make(map[topology.NodeID]bool, len(remote))
		}
		for _, s := range remote {
			txn.unacked[s] = true
		}
		txn.homePending = homeCopy
		m.armTxnDeadline(txn)
	}
	if homeCopy {
		txn.pendingAcks++
		txn.refs++
		homeInval := func() {
			m.caches[home].Invalidate(b)
			if txn.rec {
				txn.homeAcked(m)
			} else {
				txn.ackArrived(m)
			}
			m.releaseTxn(txn)
		}
		m.server(home).do(m.Params.CacheInvalidate, func() {
			// The home's own fill for this block may still be in flight.
			if op := m.deferOrSquash(home, b, true); op != nil {
				op.afterFill = append(op.afterFill, homeInval)
				return
			}
			homeInval()
		})
	}
	txn.refs += len(txn.groups) + len(fallback)
	for gi := range txn.groups {
		m.server(home).doCall(m.Params.SendOccupancy, m.fnSendGroup, txn, int32(gi))
	}
	for _, s := range fallback {
		s := s
		m.server(home).do(m.Params.SendOccupancy, func() {
			if !txn.rec || (txn.gen == 0 && !txn.completed) {
				// retry marks the inval as unicast-acked regardless of the
				// scheme's framework — the same degradation the recovery
				// path uses, applied up front because no live group covers
				// s.
				pm := m.txnMsg(txn)
				pm.retry = true
				txn.refs++
				m.send(inval, home, s, pm)
			}
			m.releaseTxn(txn)
		})
	}
}

// sendUnicastInval emits a UI-UA style single-destination invalidation.
//
//simcheck:noalloc
func (m *Machine) sendUnicastInval(txn *invalTxn, gi int, dst topology.NodeID) {
	pm := m.txnMsg(txn)
	pm.groupIdx = gi
	txn.refs++
	m.send(inval, txn.home, dst, pm)
}

// ackArrived consumes one acknowledgment; the last one completes the
// transaction, records its metrics and grants the write (grantWrite), which
// releases the block.
func (t *invalTxn) ackArrived(m *Machine) {
	if t.pendingAcks <= 0 {
		panic("coherence: surplus invalidation ack")
	}
	t.pendingAcks--
	if t.pendingAcks > 0 {
		return
	}
	t.complete(m)
}

// complete records the transaction's metrics and hands the write request
// to grantWrite. Both the counting path (ackArrived) and the recovery path
// (checkRecovered) end here, exactly once per transaction; the caller holds
// a reference, so t outlives the call.
func (t *invalTxn) complete(m *Machine) {
	t.completed = true
	if m.Rec != nil {
		m.recTxn(trace.KindTxnDone, t, uint64(t.retries), 0)
	}
	m.Metrics.Invals = append(m.Metrics.Invals, metrics.InvalRecord{
		Txn:      t.id,
		Home:     t.home,
		Sharers:  t.sharers,
		Groups:   len(t.groups),
		Start:    t.start,
		End:      m.Engine.Now(),
		HomeMsgs: t.homeMsgs,
		Retries:  t.retries,
	})
	m.grantWrite(t.home, t.req, !t.req.hasCopy)
}

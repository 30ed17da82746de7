package coherence

import (
	"fmt"

	"repro/internal/directory"
	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Degraded operation: the protocol-layer half of hard-failure survival.
// When a hard-fault schedule is bound (Machine.hard), every unicast send
// checks its base path against the current dead set and, if severed, travels
// a degraded route instead: one base-conformed detour leg when the
// conformance discipline admits it, or a chain of conformed legs pivoting at
// relay nodes (store-and-forward, which resets the conformance DFA and
// breaks inter-leg channel dependencies — so the degraded traffic still
// routes inside the healthy CDG minus the dead links, which stays acyclic).
// Healthy sends take the unchanged fast path; a zero-valued hard-fault
// config perturbs nothing.

// implicitInval writes crashed sharer s's copy of b off at the directory: a
// fail-silent node never acknowledges, so the directory drops it and clears
// its cache model directly. If s has a read miss in flight the invalidation
// is deferred past the fill — the fill would otherwise land after this call
// and re-install the copy the directory just wrote off, exactly the race the
// protocol's deferred invalidations exist to close.
func (m *Machine) implicitInval(s topology.NodeID, b directory.BlockID) {
	m.Metrics.ImplicitInvals++
	if op := m.op(s, b); op != nil && !op.write {
		op.afterFill = append(op.afterFill, func() { m.caches[s].Invalidate(b) })
		return
	}
	m.caches[s].Invalidate(b)
}

// deadNow returns the dead set at the current cycle (nil on healthy runs).
func (m *Machine) deadNow() *topology.DeadSet {
	if m.hard == nil {
		return nil
	}
	return m.hard.DeadAt(m.Engine.Now())
}

// crossesDead reports whether any hop of path is a dead link.
func crossesDead(path []topology.NodeID, ds *topology.DeadSet) bool {
	for i := 1; i < len(path); i++ {
		if ds.LinkDead(path[i-1], path[i]) {
			return true
		}
	}
	return false
}

// degradeUnicastPath is send's degraded hook: if the direct base path
// crosses a dead link it is replaced (in the worm's path buffer) with the
// first leg of a degraded route, and payload.relay is armed when further
// legs remain. On the fast path — no failure on the direct route — the path
// is returned untouched.
func (m *Machine) degradeUnicastPath(t msgType, vn network.VN, src, dst topology.NodeID,
	payload *msg, path []topology.NodeID) []topology.NodeID {
	ds := m.hard.DeadAt(m.Engine.Now())
	if !crossesDead(path, ds) {
		return path
	}
	legs, ok := m.planLegs(vn, src, dst, ds)
	if !ok {
		panic(fmt.Sprintf("coherence: no live route for %v from %v to %v\n%s",
			t, m.Mesh.Coord(src), m.Mesh.Coord(dst), m.Net.Diagnose()))
	}
	if len(legs) > 1 {
		payload.relay = append(payload.relay[:0], dst)
	}
	return append(path[:0], legs[0]...)
}

// planLegs plans a degraded route from src to dst for one virtual network:
// request worms must conform to the base routing, reply worms to its
// reverse, so a reply route is planned backwards (dst to src under the base
// discipline) and flipped.
func (m *Machine) planLegs(vn network.VN, src, dst topology.NodeID, ds *topology.DeadSet) ([][]topology.NodeID, bool) {
	base := m.Params.Scheme.Base()
	if vn != network.Reply {
		return base.RelayRoute(m.Mesh, src, dst, ds)
	}
	back, ok := base.RelayRoute(m.Mesh, dst, src, ds)
	if !ok {
		return nil, false
	}
	legs := make([][]topology.NodeID, len(back))
	for i, leg := range back {
		r := make([]topology.NodeID, len(leg))
		for j, nd := range leg {
			r[len(leg)-1-j] = nd
		}
		legs[len(back)-1-i] = r
	}
	return legs, true
}

// relayForward runs at a relay pivot: the worm's current leg ended here, but
// the message's true destination is further on. The pivot's controller pays
// receive-plus-send occupancy (store-and-forward) and re-injects the next
// leg, replanned against the dead set as of now so a failure that grew since
// the route was first planned is routed around too.
func (m *Machine) relayForward(n topology.NodeID, pm *msg) {
	m.Metrics.Relays++
	m.server(n).do(m.Params.RecvOccupancy+m.Params.SendOccupancy, func() {
		m.forwardLeg(n, pm)
	})
}

// forwardLeg re-plans and injects the next leg of a relayed message from
// pivot src toward its final destination.
func (m *Machine) forwardLeg(src topology.NodeID, pm *msg) {
	dst := pm.relay[len(pm.relay)-1]
	ds := m.deadNow()
	vn := vnFor(pm.typ)
	legs, ok := m.planLegs(vn, src, dst, ds)
	if !ok {
		panic(fmt.Sprintf("coherence: relay stranded: no live route for %v from %v to %v\n%s",
			pm.typ, m.Mesh.Coord(src), m.Mesh.Coord(dst), m.Net.Diagnose()))
	}
	if len(legs) == 1 {
		pm.relay = pm.relay[:0]
	}
	m.Metrics.MsgsSent[src]++
	w := m.Net.NewWorm()
	path := append(w.TakePathBuf(), legs[0]...)
	dests := w.TakeDestBuf(len(path))
	dests[len(path)-1] = true
	w.Kind = network.Unicast
	w.VN = vn
	w.Path = path
	w.Dest = dests
	w.HeaderFlits = m.Params.Net.HeaderFlits(1)
	w.PayloadFlits = m.payloadFlits(pm.typ)
	w.Tag = pm
	w.Expendable = pm.typ == inval || pm.typ == invalAck
	if pm.txn != nil {
		w.TxnID = pm.txn.id
	}
	m.Net.Inject(w)
	if m.Rec != nil {
		m.recMsg(trace.KindMsgSend, 0, src, w.ID, pm, uint64(dst))
	}
}

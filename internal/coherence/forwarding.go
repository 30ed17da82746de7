package coherence

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/topology"
)

// Data forwarding [21] (Koufaty et al., cited by the paper's introduction
// as the complementary technique to invalidation): when a block that was
// invalidated out of a set of consumer caches is read again after the
// producer's writes, the home forwards the fresh copy to all previous
// sharers — predicting they will re-read it — instead of waiting for each
// to miss. Under the multidestination schemes the forwarded data travels
// in grouped multicast worms, so the prediction costs G worms instead of
// d unicast sends: the same grouping machinery that accelerates
// invalidations accelerates forwarding.
//
// Protocol: the invalidation transaction records its victim set as the
// block's forward list. The next dirty-block read (homeFetchReply) sends,
// along with the requester's reply, one data-carrying multicast worm per
// group over the forward list; every recipient fills a Shared copy and is
// added to the presence bits at send time; the final recipient of each
// worm returns one fwdAck, and the block stays busy at the home until all
// acks arrive (so a later write cannot race the forwarded fills).

// fwdState tracks one in-flight forwarding episode at the home.
type fwdState struct {
	pendingAcks int
	release     func()
}

// recordForwardList remembers the invalidated sharers of a completed
// invalidation transaction as forwarding candidates.
func (m *Machine) recordForwardList(b directory.BlockID, victims []topology.NodeID) {
	if !m.Params.DataForwarding || len(victims) == 0 {
		return
	}
	if m.fwdLists == nil {
		m.fwdLists = make(map[directory.BlockID][]topology.NodeID)
	}
	// victims is the caller's scratch; the list outlives the transaction.
	m.fwdLists[b] = slices.Clone(victims)
}

// forwardAfterFetch pushes the freshly fetched block to the forward list
// (minus the nodes already receiving copies) and returns true if the block
// must stay busy until the forward acks arrive; release runs when done.
func (m *Machine) forwardAfterFetch(home topology.NodeID, e *directory.Entry,
	b directory.BlockID, exclude []topology.NodeID, release func()) bool {
	if !m.Params.DataForwarding {
		return false
	}
	victims := m.fwdLists[b]
	if len(victims) == 0 {
		return false
	}
	delete(m.fwdLists, b)
	skip := make(map[topology.NodeID]bool, len(exclude)+1)
	skip[home] = true
	for _, n := range exclude {
		skip[n] = true
	}
	var targets []topology.NodeID
	for _, n := range victims {
		if !skip[n] {
			targets = append(targets, n)
		}
	}
	if len(targets) == 0 {
		return false
	}
	for _, n := range targets {
		e.Sharers.Set(n)
	}
	m.notePointerLimit(e)

	groups := grouping.Groups(m.Params.Scheme, m.Mesh, home, targets)
	st := &fwdState{pendingAcks: len(groups), release: release}
	for gi := range groups {
		gi := gi
		m.server(home).do(m.Params.SendOccupancy, func() {
			m.sendForward(home, b, groups[gi], st)
		})
	}
	m.Metrics.Forwards += uint64(len(targets))
	return true
}

// sendForward emits one forwarding worm: a data-carrying multicast over the
// group's request path (forwarded data is new work initiated by the home,
// so it travels the request network like other home-initiated pushes).
func (m *Machine) sendForward(home topology.NodeID, b directory.BlockID, g grouping.Group, st *fwdState) {
	m.Metrics.MsgsSent[home]++
	kind := network.Multicast
	if len(g.Members) == 1 {
		kind = network.Unicast
	}
	w := m.Net.NewWorm()
	w.Kind = kind
	w.VN = network.Request
	w.Path = g.Path
	w.Dest = destFlagsInto(w.TakeDestBuf(len(g.Path)), g.Path, g.Members)
	w.HeaderFlits = m.Params.Net.HeaderFlits(len(g.Members))
	w.PayloadFlits = m.Params.dataFlits()
	w.Tag = &msg{typ: fwdData, block: b, from: home, fwd: st}
	m.Net.Inject(w)
}

// recvForward handles a forwarded copy at a recipient: install the block
// Shared (unless the node has its own transaction in flight) and, at the
// group's final member, acknowledge the episode to the home.
func (m *Machine) recvForward(n topology.NodeID, pm *msg, final bool) {
	m.server(n).do(m.Params.RecvOccupancy+m.Params.CacheAccess, func() {
		if m.caches[n].State(pm.block) == cache.Invalid && m.op(n, pm.block) == nil {
			victim, vs, evicted := m.caches[n].Fill(pm.block, cache.SharedLine)
			if evicted && vs == cache.ModifiedLine {
				m.server(n).do(m.Params.SendOccupancy, func() {
					m.send(writeback, n, m.Home(victim),
						&msg{typ: writeback, block: victim, from: n, ownGen: m.ownGenOf(n, victim)})
				})
			}
		}
		if final {
			m.server(n).do(m.Params.SendOccupancy, func() {
				m.send(fwdAck, n, m.Home(pm.block), &msg{typ: fwdAck, block: pm.block, from: n, fwd: pm.fwd})
			})
		}
	})
}

// recvForwardAck retires one group's forwarding ack; the last releases the
// block for queued transactions.
func (m *Machine) recvForwardAck(home topology.NodeID, pm *msg) {
	m.server(home).do(m.Params.RecvOccupancy, func() {
		st := pm.fwd
		if st == nil || st.pendingAcks <= 0 {
			panic("coherence: stray forwarding ack")
		}
		st.pendingAcks--
		if st.pendingAcks == 0 {
			st.release()
		}
	})
}

package coherence

import (
	"math/bits"

	"repro/internal/topology"
)

// Unicast-tree invalidation (the UMC comparator): instead of
// multidestination worms, the invalidation propagates down a binomial tree
// of unicast messages among the participants (home = rank 0, sharers =
// ranks 1..m), and acknowledgments combine back up the tree — McKinley et
// al.'s unicast-based multicast [31], the software alternative the BRCP
// papers position against. The home sends and receives only O(log d)
// messages, but every tree level pays full software send/receive occupancy
// at intermediate *nodes*, where a worm pays only router latency.
//
// parent(j) = j - 2^floor(log2 j); children(j) = j + 2^k for every k with
// 2^k > highestBit(j) (all k for the root), capped at m.

// treeCtx is the per-(txn, rank) forwarding state at one participant. The
// context an inval carries holds one reference to the transaction, released
// once the participant has sent its combined ack upward.
type treeCtx struct {
	txn          *invalTxn
	participants []topology.NodeID // rank -> node
	rank         int
	pendingAcks  int
	selfDone     bool
}

// treeChildren returns the binomial-tree children ranks of rank j among
// m+1 participants.
func treeChildren(j, m int) []int {
	var out []int
	start := 0
	if j > 0 {
		start = bits.Len(uint(j)) // first k with 2^k > highestBit(j)
	}
	for k := start; ; k++ {
		c := j + 1<<k
		if c > m {
			break
		}
		out = append(out, c)
	}
	return out
}

// treeParent returns the binomial-tree parent rank of j > 0.
func treeParent(j int) int {
	return j - 1<<(bits.Len(uint(j))-1)
}

// startTreeInval distributes the invalidation down the binomial tree. The
// txn's pendingAcks must already equal the home's child count.
func (m *Machine) startTreeInval(txn *invalTxn, participants []topology.NodeID) {
	home := participants[0]
	kids := treeChildren(0, len(participants)-1)
	for _, c := range kids {
		c := c
		txn.refs++
		m.server(home).do(m.Params.SendOccupancy, func() {
			m.sendTreeInval(txn, participants, c)
			m.releaseTxn(txn)
		})
	}
}

// sendTreeInval emits the unicast invalidation for rank.
func (m *Machine) sendTreeInval(txn *invalTxn, participants []topology.NodeID, rank int) {
	src := participants[treeParent(rank)]
	dst := participants[rank]
	pm := m.txnMsg(txn)
	pm.from = src
	pm.tree = &treeCtx{txn: txn, participants: participants, rank: rank}
	txn.refs++
	m.send(inval, src, dst, pm)
}

// recvTreeInval handles a tree invalidation at a sharer: invalidate,
// forward to tree children, and combine acknowledgments upward.
func (m *Machine) recvTreeInval(n topology.NodeID, pm *msg) {
	ctx := pm.tree
	kids := treeChildren(ctx.rank, len(ctx.participants)-1)
	ctx.pendingAcks = len(kids)
	m.treeCtxs(ctx.txn.id)[ctx.rank] = ctx
	m.server(n).do(m.Params.RecvOccupancy+m.Params.CacheInvalidate, func() {
		selfInval := func() {
			m.caches[n].Invalidate(pm.block)
			ctx.selfDone = true
			m.treeMaybeAck(ctx)
		}
		// Deferring past our own pending fill holds back only our own
		// invalidation — and with it the combined ack. Forwarding to
		// children is NOT deferred: the subtree's sharers must not wait on
		// our fill.
		deferred := false
		if op := m.deferOrSquash(n, pm.block, !ctx.txn.broadcast); op != nil {
			op.afterFill = append(op.afterFill, selfInval)
			deferred = true
		}
		for _, c := range kids {
			c := c
			m.server(n).do(m.Params.TreeForwardOverhead+m.Params.SendOccupancy, func() {
				m.sendTreeInval(ctx.txn, ctx.participants, c)
			})
		}
		if !deferred {
			selfInval()
		}
	})
}

// recvTreeAck handles a combined acknowledgment arriving from a tree child.
func (m *Machine) recvTreeAck(n topology.NodeID, pm *msg) {
	m.server(n).do(m.Params.RecvOccupancy, func() {
		txn := pm.txn
		if pm.tree.rank == 0 {
			// Ack into the home: one of the root's children completed.
			txn.ackArrived(m)
		} else {
			ctx := m.treeCtxs(txn.id)[pm.tree.rank]
			if ctx == nil {
				panic("coherence: tree ack for unknown context")
			}
			ctx.pendingAcks--
			m.treeMaybeAck(ctx)
		}
		m.freeMsg(pm)
		m.releaseTxn(txn)
	})
}

// treeMaybeAck sends the combined ack upward once this participant's own
// invalidation and all of its subtree's acks are in.
func (m *Machine) treeMaybeAck(ctx *treeCtx) {
	if !ctx.selfDone || ctx.pendingAcks > 0 {
		return
	}
	delete(m.treeCtxs(ctx.txn.id), ctx.rank)
	n := ctx.participants[ctx.rank]
	parentRank := treeParent(ctx.rank)
	parent := ctx.participants[parentRank]
	m.server(n).do(m.Params.TreeForwardOverhead+m.Params.SendOccupancy, func() {
		txn := ctx.txn
		ack := m.newMsg()
		ack.typ, ack.block, ack.from, ack.txn = invalAck, txn.block, n, txn
		ack.tree = &treeCtx{txn: txn, participants: ctx.participants, rank: parentRank}
		txn.refs++
		m.send(invalAck, n, parent, ack)
		m.releaseTxn(txn)
	})
}

// treeCtxs returns (creating) the per-transaction rank table.
func (m *Machine) treeCtxs(txnID uint64) map[int]*treeCtx {
	if m.treeTable == nil {
		m.treeTable = make(map[uint64]map[int]*treeCtx)
	}
	t := m.treeTable[txnID]
	if t == nil {
		t = make(map[int]*treeCtx)
		m.treeTable[txnID] = t
	}
	return t
}

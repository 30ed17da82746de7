package oracle

import (
	"fmt"
	"math/bits"

	"repro/internal/grouping"
)

// succ is one enabled transition out of a state.
type succ struct {
	action string
	next   mstate
}

// successors enumerates every enabled transition of st in a fixed,
// deterministic order: processor issues, then message deliveries in
// canonical message order, then i-ack posts, the home's local invalidation,
// timeouts, and finally fault events. The enumeration order only affects
// which counterexample is found first, never what is reachable.
func (md *model) successors(st *mstate) []succ {
	var out []succ
	add := func(action string, ns mstate) {
		out = append(out, succ{action, ns})
	}

	// Processor issues. Cache hits (reads of a valid line, writes of a
	// Modified line) are invisible to the protocol and are not modeled.
	for n := 0; n < md.nodes; n++ {
		if st.op[n].active || int(st.used[n]) >= md.cfg.OpsPerNode {
			continue
		}
		for b := 0; b < md.cfg.Blocks; b++ {
			if st.cache[n][b] == lineI {
				ns := st.clone()
				ns.op[n] = mop{active: true, write: false, block: uint8(b)}
				ns.used[n]++
				ns.addMsg(mmsg{typ: mReadReq, from: uint8(n), to: md.homeOf[b], block: uint8(b)})
				add(fmt.Sprintf("node %d issues read of block %d", n, b), ns)
			}
			if st.cache[n][b] != lineM {
				ns := st.clone()
				ns.op[n] = mop{active: true, write: true, block: uint8(b)}
				ns.used[n]++
				ns.addMsg(mmsg{typ: mWriteReq, from: uint8(n), to: md.homeOf[b], block: uint8(b)})
				add(fmt.Sprintf("node %d issues write of block %d", n, b), ns)
			}
		}
	}

	// Message deliveries. st.msgs is already in canonical order (states are
	// decoded from canonical keys), so index order is deterministic.
	for i := range st.msgs {
		m := st.msgs[i]
		switch m.typ {
		case mReadReq, mWriteReq:
			b := int(m.block)
			if st.txn[b].active || st.dir[b].fetch {
				continue // the home's per-block queue holds the request
			}
			ns := st.clone()
			ns.removeMsg(i)
			md.deliverRequest(&ns, m)
			add(fmt.Sprintf("home processes %s", md.formatMsg(&m)), ns)

		case mInval:
			if op := st.op[m.to]; !m.retry && op.active && !op.write && op.block == m.block {
				// Directory-targeted invalidation racing the node's own
				// fill: the home snapshotted the node from the presence
				// bits, so its read was served and the fill is in flight —
				// defer the invalidation (and the ack) past it, mirroring
				// sharerInval. Retries cannot defer: they may catch a node
				// whose re-request is queued behind this very transaction.
				ns := st.clone()
				ns.removeMsg(i)
				ns.op[m.to].dinval = true
				ns.op[m.to].depoch = m.epoch
				add(fmt.Sprintf("node %d defers %s past its in-flight fill",
					m.to, md.formatMsg(&m)), ns)
				continue
			}
			ns := st.clone()
			ns.removeMsg(i)
			md.invalidateAt(&ns, int(m.to), m.block)
			ns.addMsg(mmsg{typ: mInvalAck, from: m.to, to: md.homeOf[m.block],
				block: m.block, epoch: m.epoch})
			add(fmt.Sprintf("deliver %s", md.formatMsg(&m)), ns)

		case mMWorm:
			b := int(m.block)
			t := st.txn[b]
			if !t.active || t.epoch != m.epoch {
				// Straggler past its transaction; aborts purge these, so
				// this arm is defensive.
				ns := st.clone()
				ns.removeMsg(i)
				add(fmt.Sprintf("absorb stale %s", md.formatMsg(&m)), ns)
				continue
			}
			g := md.groupsFor(md.homeOf[b], t.remote)[m.gi]
			member := int(g.members[m.pos])
			last := int(m.pos) == len(g.members)-1
			if op := st.op[member]; op.active && !op.write && op.block == m.block {
				// The worm caught the member's read with its fill in flight
				// (worms are never retries, so the serve is proven): defer
				// this member's invalidation and acknowledgment duty past
				// the fill. The worm itself advances — the rest of the
				// group must not wait on this member's fill.
				ns := st.clone()
				ns.op[member].dinval = true
				ns.op[member].depoch = m.epoch
				ns.op[member].dgi = m.gi
				ns.op[member].dlast = last
				if last {
					ns.removeMsg(i)
				} else {
					ns.msgs[i].pos++
				}
				add(fmt.Sprintf("worm b%d txn#%d group %d defers at node %d past its in-flight fill",
					b, m.epoch, m.gi, member), ns)
				continue
			}
			ns := st.clone()
			md.invalidateAt(&ns, member, m.block)
			if !md.cfg.Scheme.GatherAck() {
				ns.addMsg(mmsg{typ: mInvalAck, from: uint8(member), to: md.homeOf[b],
					block: m.block, epoch: m.epoch})
			} else if last {
				// The last member launches the gather; its own ack rides it.
				ns.addMsg(mmsg{typ: mGather, from: uint8(member), to: md.homeOf[b],
					block: m.block, epoch: m.epoch, gi: m.gi})
			} else {
				// The member's i-ack post heads for its reservation entry.
				ns.txn[b].mustPost |= 1 << uint(member)
			}
			if last {
				ns.removeMsg(i)
			} else {
				ns.msgs[i].pos++
			}
			add(fmt.Sprintf("worm b%d txn#%d group %d visits node %d", b, m.epoch, m.gi, member), ns)

		case mInvalAck:
			b := int(m.block)
			ns := st.clone()
			ns.removeMsg(i)
			desc := "absorb stale"
			if t := &ns.txn[b]; t.active && t.epoch == m.epoch {
				desc = "deliver"
				if md.cfg.Mutation == MutCountAcks {
					t.acks++
				} else {
					t.unacked &^= 1 << uint(m.from)
				}
				md.maybeComplete(&ns, b)
			}
			add(fmt.Sprintf("%s %s", desc, md.formatMsg(&m)), ns)

		case mGather:
			b := int(m.block)
			t := st.txn[b]
			if !t.active || t.epoch != m.epoch {
				ns := st.clone()
				ns.removeMsg(i)
				add(fmt.Sprintf("absorb stale %s", md.formatMsg(&m)), ns)
				continue
			}
			g := md.groupsFor(md.homeOf[b], t.remote)[m.gi]
			if t.posted&g.preMask != g.preMask {
				continue // the gather trails unposted i-acks
			}
			ns := st.clone()
			ns.removeMsg(i)
			nt := &ns.txn[b]
			nt.posted &^= g.mask
			if md.cfg.Mutation == MutCountAcks {
				nt.acks += uint8(len(g.members))
			} else {
				nt.unacked &^= g.mask
			}
			md.maybeComplete(&ns, b)
			add(fmt.Sprintf("deliver %s", md.formatMsg(&m)), ns)

		case mFetchReq, mFetchInval:
			owner, b := int(m.to), int(m.block)
			if st.op[owner].active && int(st.op[owner].block) == b {
				continue // the fetch overtook the grant; defer until the fill
			}
			if st.cache[owner][b] != lineM {
				panic("oracle: fetch at a non-modified owner")
			}
			ns := st.clone()
			ns.removeMsg(i)
			if m.typ == mFetchReq {
				ns.cache[owner][b] = lineS
			} else {
				ns.cache[owner][b] = lineI
			}
			ns.addMsg(mmsg{typ: mFetchReply, from: uint8(owner), to: md.homeOf[b], block: m.block})
			add(fmt.Sprintf("deliver %s", md.formatMsg(&m)), ns)

		case mFetchReply:
			b := int(m.block)
			d := st.dir[b]
			if !d.fetch {
				panic("oracle: fetch reply without a fetch in progress")
			}
			ns := st.clone()
			ns.removeMsg(i)
			if d.fetchWrite {
				md.grant(&ns, b, d.fetchReq)
			} else {
				ns.dir[b] = mdir{st: dirS, shr: 1<<uint(d.fetchOwner) | 1<<uint(d.fetchReq)}
				ns.addMsg(mmsg{typ: mReadReply, from: md.homeOf[b], to: d.fetchReq, block: m.block})
			}
			add(fmt.Sprintf("deliver %s", md.formatMsg(&m)), ns)

		case mReadReply:
			ns := st.clone()
			ns.removeMsg(i)
			op := st.op[m.to]
			ns.op[m.to] = mop{}
			var desc string
			if op.squash {
				// The fill's data was serialized at the home before the
				// invalidating write: the load consumes it — ordered just
				// before that write — but installs nothing, so the
				// directory's view (this node holds no copy) stays exact.
				desc = fmt.Sprintf("node %d consumes squashed fill of block %d without install",
					m.to, m.block)
			} else {
				ns.cache[m.to][m.block] = lineS
				desc = fmt.Sprintf("deliver %s", md.formatMsg(&m))
			}
			if op.dinval {
				// The deferred invalidation closes right behind the fill:
				// drop the just-installed line and perform the
				// acknowledgment duty the sharer owed its transaction. A
				// unicast ack is emitted unconditionally (delivery absorbs
				// stragglers); i-ack posts and gather launches only reach a
				// first-generation transaction — an abort purged their
				// reservation entries, and the retry's unicast invals
				// re-cover this member.
				md.invalidateAt(&ns, int(m.to), m.block)
				b := int(m.block)
				if !md.cfg.Scheme.GatherAck() {
					ns.addMsg(mmsg{typ: mInvalAck, from: m.to, to: md.homeOf[b],
						block: m.block, epoch: op.depoch})
				} else if t := &ns.txn[b]; t.active && t.epoch == op.depoch && t.gen == 0 {
					if op.dlast {
						ns.addMsg(mmsg{typ: mGather, from: m.to, to: md.homeOf[b],
							block: m.block, epoch: op.depoch, gi: op.dgi})
					} else {
						t.mustPost |= 1 << uint(m.to)
					}
				}
				desc += ", then runs its deferred invalidation"
			}
			add(desc, ns)

		case mWriteReply:
			ns := st.clone()
			ns.removeMsg(i)
			ns.cache[m.to][m.block] = lineM
			ns.op[m.to] = mop{}
			add(fmt.Sprintf("deliver %s", md.formatMsg(&m)), ns)

		default:
			panic("oracle: unknown message type")
		}
	}

	// Buffered i-ack posts reach their reservation entries.
	for b := 0; b < md.cfg.Blocks; b++ {
		t := st.txn[b]
		if !t.active {
			continue
		}
		for n := 0; n < md.nodes; n++ {
			bit := uint16(1) << uint(n)
			if t.mustPost&bit == 0 {
				continue
			}
			ns := st.clone()
			ns.txn[b].mustPost &^= bit
			ns.txn[b].posted |= bit
			add(fmt.Sprintf("node %d posts i-ack for block %d txn#%d", n, b, t.epoch), ns)
		}
	}

	// The home invalidates its own copy. Deferred (the transition stays
	// disabled) while the home's own served read is awaiting its fill — the
	// local mirror of the directory-targeted deferral: the presence bit
	// proves the self-read was served, the fill is in flight, and the
	// transition re-enables once it lands.
	for b := 0; b < md.cfg.Blocks; b++ {
		t := st.txn[b]
		if !t.active || !t.homePending {
			continue
		}
		if op := st.op[t.home]; op.active && !op.write && int(op.block) == b {
			continue
		}
		ns := st.clone()
		md.invalidateAt(&ns, int(t.home), uint8(b))
		ns.txn[b].homePending = false
		md.maybeComplete(&ns, b)
		add(fmt.Sprintf("home invalidates its local copy of block %d", b), ns)
	}

	// Timeouts: spurious while the budget lasts, and always available as a
	// rescue once a transaction is provably wedged — mirroring the real
	// machine's unbounded retry deadline without unbounded branching
	// (rescues are bounded by the fault budget).
	for b := 0; b < md.cfg.Blocks; b++ {
		t := st.txn[b]
		if !t.active || t.unacked == 0 {
			continue
		}
		if int(st.timeouts) >= md.cfg.MaxTimeouts && !(md.cfg.MaxTimeouts > 0 && md.stuck(st, b)) {
			continue
		}
		ns := st.clone()
		nt := &ns.txn[b]
		nt.gen++
		ns.timeouts++
		// Abort: purge this transaction's request-side worms and gathers.
		// In-flight acknowledgments survive — the reply network cannot
		// recall them — and their survival is exactly the duplicate-ack
		// window the recovery dedup must absorb (MutCountAcks breaks it).
		kept := ns.msgs[:0]
		for _, km := range ns.msgs {
			if km.block == uint8(b) && km.epoch == t.epoch &&
				(km.typ == mInval || km.typ == mMWorm || km.typ == mGather) {
				continue
			}
			kept = append(kept, km)
		}
		ns.msgs = kept
		nt.posted, nt.mustPost = 0, 0
		for n := 0; n < md.nodes; n++ {
			if nt.unacked&(1<<uint(n)) != 0 {
				ns.addMsg(mmsg{typ: mInval, from: t.home, to: uint8(n), block: uint8(b),
					epoch: t.epoch, gen: nt.gen, retry: true})
			}
		}
		add(fmt.Sprintf("timeout on block %d txn#%d: abort, retry gen %d", b, t.epoch, nt.gen), ns)
	}

	// Fault events: kill an expendable worm, or lose a buffered i-ack post.
	if int(st.drops) < md.cfg.MaxDrops {
		for i := range st.msgs {
			m := st.msgs[i]
			if m.typ != mInval && m.typ != mMWorm && m.typ != mInvalAck && m.typ != mGather {
				continue
			}
			ns := st.clone()
			ns.removeMsg(i)
			ns.drops++
			add(fmt.Sprintf("drop %s", md.formatMsg(&m)), ns)
		}
		for b := 0; b < md.cfg.Blocks; b++ {
			t := st.txn[b]
			if !t.active {
				continue
			}
			for n := 0; n < md.nodes; n++ {
				bit := uint16(1) << uint(n)
				if t.mustPost&bit == 0 {
					continue
				}
				ns := st.clone()
				ns.txn[b].mustPost &^= bit
				ns.drops++
				add(fmt.Sprintf("lose node %d's i-ack post for block %d txn#%d", n, b, t.epoch), ns)
			}
		}
	}

	return out
}

// invalidateAt drops node n's copy of b — unless the seeded stale-sharer
// bug is active, in which case the node acknowledges without invalidating.
// A pending read miss at n on the same block is squashed: its fill must
// not install the very copy this invalidation exists to destroy. Only
// retried invalidations reach this with an op still pending —
// directory-targeted ones defer past the fill instead (see the mInval and
// mMWorm arms of successors).
func (md *model) invalidateAt(ns *mstate, n int, b uint8) {
	if op := ns.op[n]; op.active && !op.write && op.block == b {
		ns.op[n].squash = true
	}
	if md.cfg.Mutation == MutSkipInvalidate {
		return
	}
	ns.cache[n][b] = lineI
}

// deliverRequest runs the home's handler for a read or write request on an
// idle block.
func (md *model) deliverRequest(ns *mstate, m mmsg) {
	b := int(m.block)
	d := &ns.dir[b]
	req := m.from
	if m.typ == mReadReq {
		switch d.st {
		case dirU, dirS:
			d.st = dirS
			d.shr |= 1 << uint(req)
			ns.addMsg(mmsg{typ: mReadReply, from: md.homeOf[b], to: req, block: m.block})
		case dirE:
			if d.owner == req {
				panic("oracle: owner re-reading its own modified block")
			}
			owner := d.owner
			*d = mdir{st: dirW, fetch: true, fetchReq: req, fetchOwner: owner}
			ns.addMsg(mmsg{typ: mFetchReq, from: md.homeOf[b], to: owner, block: m.block})
		case dirW:
			panic("oracle: request delivered to a waiting entry")
		default:
			panic("oracle: unknown directory state")
		}
		return
	}
	switch d.st {
	case dirU:
		md.grant(ns, b, req)
	case dirS:
		md.startInval(ns, b, req)
	case dirE:
		if d.owner == req {
			panic("oracle: owner re-writing its own modified block")
		}
		owner := d.owner
		*d = mdir{st: dirW, fetch: true, fetchWrite: true, fetchReq: req, fetchOwner: owner}
		ns.addMsg(mmsg{typ: mFetchInval, from: md.homeOf[b], to: owner, block: m.block})
	case dirW:
		panic("oracle: request delivered to a waiting entry")
	default:
		panic("oracle: unknown directory state")
	}
}

// grant hands block b exclusively to req and sends the write reply.
func (md *model) grant(ns *mstate, b int, req uint8) {
	ns.dir[b] = mdir{st: dirE, owner: req}
	ns.addMsg(mmsg{typ: mWriteReply, from: md.homeOf[b], to: req, block: uint8(b)})
}

// startInval begins the invalidation transaction a write to a Shared block
// requires, launching the scheme's worms (or unicast invalidations for
// UI-UA) over the remote sharer set.
func (md *model) startInval(ns *mstate, b int, req uint8) {
	home := md.homeOf[b]
	d := &ns.dir[b]
	remote := d.shr &^ (1 << uint(req)) &^ (1 << uint(home))
	homeCopy := d.shr&(1<<uint(home)) != 0 && home != req
	if remote == 0 && !homeCopy {
		md.grant(ns, b, req)
		return
	}
	*d = mdir{st: dirW}
	ns.epoch[b]++
	ns.txn[b] = mtxn{
		active: true, epoch: ns.epoch[b], home: home, requester: req,
		remote: remote, unacked: remote, homePending: homeCopy,
	}
	if remote == 0 {
		return
	}
	groups := md.groupsFor(home, remote)
	if md.cfg.Scheme == grouping.UIUA {
		for _, g := range groups {
			ns.addMsg(mmsg{typ: mInval, from: home, to: g.members[0], block: uint8(b),
				epoch: ns.epoch[b]})
		}
		return
	}
	for gi := range groups {
		ns.addMsg(mmsg{typ: mMWorm, from: home, block: uint8(b),
			epoch: ns.epoch[b], gi: uint8(gi)})
	}
}

// maybeComplete grants the transaction's requester exclusivity once every
// acknowledgment condition holds.
func (md *model) maybeComplete(ns *mstate, b int) {
	t := &ns.txn[b]
	if !t.active {
		return
	}
	done := t.unacked == 0 && !t.homePending
	if md.cfg.Mutation == MutCountAcks {
		done = int(t.acks) >= bits.OnesCount16(t.remote) && !t.homePending
	}
	if !done {
		return
	}
	req := t.requester
	ns.txn[b] = mtxn{}
	md.grant(ns, b, req)
}

// stuck reports whether block b's transaction can no longer make progress
// without a timeout: some sharer unacked, nothing left to post, and no
// in-flight message that could drain the unacked set. Timeouts past the
// spurious budget are enabled only here, mirroring the real machine's
// unlimited retry deadline without unbounded branching.
func (md *model) stuck(st *mstate, b int) bool {
	t := st.txn[b]
	if t.unacked == 0 || t.mustPost != 0 {
		return false
	}
	for n := 0; n < md.nodes; n++ {
		// A deferred invalidation whose fill is in flight will perform
		// its acknowledgment duty when the fill lands. The fill's
		// existence is verified, not assumed: deferral is only sound when
		// listed-in-snapshot implies served-with-reply-in-flight (the
		// premise of the machine's deferOrSquash), and taking the
		// implication on faith here would mask exactly the deadlock the
		// deferral risks — a deferred ack waiting on a fill that can never
		// arrive.
		op := st.op[n]
		if op.active && op.dinval && int(op.block) == b && op.depoch == t.epoch {
			for _, m := range st.msgs {
				if m.typ == mReadReply && int(m.to) == n && int(m.block) == b {
					return false
				}
			}
		}
	}
	for _, m := range st.msgs {
		if int(m.block) != b || m.epoch != t.epoch {
			continue
		}
		if m.typ == mInval || m.typ == mMWorm || m.typ == mInvalAck {
			return false
		}
		if m.typ == mGather {
			g := md.groupsFor(md.homeOf[b], t.remote)[m.gi]
			if t.posted&g.preMask == g.preMask {
				return false
			}
		}
	}
	return true
}

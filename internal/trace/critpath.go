package trace

import (
	"sort"

	"repro/internal/sim"
)

// This file is the critical-path analyzer: it walks a recording's event
// stream and attributes each operation's end-to-end latency — and each
// invalidation transaction's — into Table-5-style components.
//
// The attribution is exact by construction: for every operation the
// analyzer picks an increasing chain of milestones from issue to
// completion and labels the interval between consecutive milestones, so
// the components telescope and always sum to the measured latency. Label
// resolution is best-effort: when the causal chain cannot be identified
// (an overwritten ring, a software-tree transaction, ambiguous concurrent
// traffic) the unexplained remainder lands in a single "(unresolved)"
// component instead of being misattributed — the sum property survives
// unconditionally.

// Component labels produced by the analyzer. The first seven are the
// clean-read-miss chain and match the rows of the hand-derived Table 5
// breakdown (workload.ReadMissBreakdown) in order.
const (
	CompCacheLookup = "cache lookup (miss detect)"
	CompReqSend     = "request send occupancy"
	CompReqNet      = "request network"
	CompHomeDir     = "home receive + directory lookup"
	CompMemReply    = "memory access + reply send"
	CompReplyNet    = "reply network"
	CompFill        = "requester receive + cache fill"

	CompHit   = "cache hit service"
	CompGrant = "grant: memory access + reply send"

	CompFetchSend  = "fetch send occupancy"
	CompFetchNet   = "fetch network"
	CompOwnerWB    = "owner service + writeback send"
	CompWBNet      = "writeback network"
	CompHomeUpdate = "home memory update + reply send"

	CompInvalSend      = "inval send occupancy"
	CompInvalNet       = "inval network"
	CompSharerInval    = "sharer invalidate + ack launch"
	CompAckNet         = "ack network"
	CompAckProc        = "home ack processing"
	CompHomeLocalInval = "home local invalidate"
	CompAckCollect     = "ack collection (unresolved)"

	CompUnresolved = "protocol service (unresolved)"
)

// Segment is one labeled slice of a critical path.
type Segment struct {
	Component string
	From, To  sim.Time
}

// Cycles returns the segment's length.
func (s Segment) Cycles() sim.Time { return s.To - s.From }

// OpPath is the critical-path attribution of one completed operation.
type OpPath struct {
	Tok      uint64
	Node     int32
	Block    uint64
	Write    bool
	Issue    sim.Time
	Done     sim.Time
	Segments []Segment
	// Resolved reports whether the full causal chain was identified; when
	// false some segments carry an "(unresolved)" label. The segment sum
	// equals Latency either way.
	Resolved bool
}

// Latency is the operation's end-to-end time.
func (p *OpPath) Latency() sim.Time { return p.Done - p.Issue }

// Sum adds up the segment lengths; always equal to Latency.
func (p *OpPath) Sum() sim.Time {
	var t sim.Time
	for _, s := range p.Segments {
		t += s.Cycles()
	}
	return t
}

// TxnPath is the critical-path attribution of one invalidation
// transaction, from the home opening it to the last acknowledgment.
type TxnPath struct {
	Txn      uint64
	Home     int32
	Block    uint64
	Sharers  uint64
	Groups   uint64
	Retries  uint64
	Start    sim.Time
	End      sim.Time
	Segments []Segment
	Resolved bool
}

// Latency is the transaction's end-to-end time.
func (t *TxnPath) Latency() sim.Time { return t.End - t.Start }

// Sum adds up the segment lengths; always equal to Latency.
func (t *TxnPath) Sum() sim.Time {
	var d sim.Time
	for _, s := range t.Segments {
		d += s.Cycles()
	}
	return d
}

// Analysis is the result of a critical-path pass over a recording.
type Analysis struct {
	Ops  []OpPath
	Txns []TxnPath
}

// TopOps returns the k highest-latency operations, ties broken by token.
func (a *Analysis) TopOps(k int) []OpPath {
	out := append([]OpPath(nil), a.Ops...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency() != out[j].Latency() {
			return out[i].Latency() > out[j].Latency()
		}
		return out[i].Tok < out[j].Tok
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// index holds the per-kind lookups the chain walk needs. Maps are fine
// here — the analyzer is an offline consumer — but every iteration that
// produces output goes through sorted key slices.
type index struct {
	opIssue    map[uint64]*Event // by op token
	opMiss     map[uint64]*Event
	opDone     map[uint64]*Event
	opToks     []uint64
	reqSend    map[uint64]*Event  // first request MsgSend by op token
	dirDone    map[uint64]*Event  // first DirDone by op token
	sendByWorm map[uint64]*Event  // MsgSend by worm id (unique)
	finalRecv  map[uint64]*Event  // final-delivery MsgRecv by worm id
	sendsAt    map[int32][]*Event // MsgSend by node, in time order
	txnStart   map[uint64]*Event  // by txn id
	txnDone    map[uint64]*Event  // by txn id
	txnIDs     []uint64
	recvsByTxn map[uint64][]*Event // MsgRecv carrying a txn id, in time order
}

// Analyze runs the critical-path pass. Only operations and transactions
// whose issue and completion events are both retained in the recording are
// reported (a wrapped ring drops the oldest ones).
func Analyze(events []Event) *Analysis {
	ix := buildIndex(events)
	a := &Analysis{}
	for _, tok := range ix.opToks {
		if ix.opDone[tok] == nil {
			continue
		}
		a.Ops = append(a.Ops, ix.analyzeOp(tok))
	}
	for _, id := range ix.txnIDs {
		if ix.txnDone[id] == nil {
			continue
		}
		a.Txns = append(a.Txns, ix.analyzeTxn(id))
	}
	return a
}

func buildIndex(events []Event) *index {
	ix := &index{
		opIssue:    make(map[uint64]*Event),
		opMiss:     make(map[uint64]*Event),
		opDone:     make(map[uint64]*Event),
		reqSend:    make(map[uint64]*Event),
		dirDone:    make(map[uint64]*Event),
		sendByWorm: make(map[uint64]*Event),
		finalRecv:  make(map[uint64]*Event),
		sendsAt:    make(map[int32][]*Event),
		txnStart:   make(map[uint64]*Event),
		txnDone:    make(map[uint64]*Event),
		recvsByTxn: make(map[uint64][]*Event),
	}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindOpIssue:
			if ix.opIssue[ev.Txn] == nil {
				ix.opIssue[ev.Txn] = ev
				ix.opToks = append(ix.opToks, ev.Txn)
			}
		case KindOpMiss:
			if ix.opMiss[ev.Txn] == nil {
				ix.opMiss[ev.Txn] = ev
			}
		case KindOpDone:
			if ix.opDone[ev.Txn] == nil {
				ix.opDone[ev.Txn] = ev
			}
		case KindMsgSend:
			ix.sendByWorm[ev.Worm] = ev
			ix.sendsAt[ev.Node] = append(ix.sendsAt[ev.Node], ev)
			if ev.B != 0 && (ev.Label == LabelReadReq || ev.Label == LabelWriteReq) && ix.reqSend[ev.B] == nil {
				ix.reqSend[ev.B] = ev
			}
		case KindMsgRecv:
			if ev.Flag == FlagFinal && ix.finalRecv[ev.Worm] == nil {
				ix.finalRecv[ev.Worm] = ev
			}
			if ev.Txn != 0 {
				ix.recvsByTxn[ev.Txn] = append(ix.recvsByTxn[ev.Txn], ev)
			}
		case KindDirDone:
			if ev.B != 0 && ix.dirDone[ev.B] == nil {
				ix.dirDone[ev.B] = ev
			}
		case KindTxnStart:
			if ix.txnStart[ev.Txn] == nil {
				ix.txnStart[ev.Txn] = ev
				ix.txnIDs = append(ix.txnIDs, ev.Txn)
			}
		case KindTxnDone:
			if ix.txnDone[ev.Txn] == nil {
				ix.txnDone[ev.Txn] = ev
			}
		case KindTxnRetry, KindWormInject, KindWormHead, KindWormBlock, KindWormGrant,
			KindWormHold, KindWormRelease, KindWormDrain, KindWormDeliver, KindWormDone,
			KindWormKill, KindWormPark, KindWormResume, KindAckPost, KindServerBusy,
			KindFaultDrop, KindFaultStall, KindFaultSlow, KindFaultAckLoss, KindEngineQueue:
			// Not needed by the chain walk.
		default:
			panic("trace: unknown event kind in Analyze")
		}
	}
	sort.Slice(ix.opToks, func(i, j int) bool { return ix.opToks[i] < ix.opToks[j] })
	sort.Slice(ix.txnIDs, func(i, j int) bool { return ix.txnIDs[i] < ix.txnIDs[j] })
	return ix
}

// walker appends milestone-bounded segments while enforcing monotonicity:
// a missing or out-of-order milestone flips it to bad, after which the
// caller tail-fills the remainder as unresolved. Segments already appended
// are always valid tiles.
type walker struct {
	segs []Segment
	t    sim.Time // frontier
	end  sim.Time // operation completion; no milestone may pass it
	bad  bool
}

// step advances the frontier to ev, labeling the traversed interval.
// Zero-length intervals are kept when keepZero is set (they are real
// pipeline stages that happened to cost nothing).
func (w *walker) step(label string, at sim.Time, ok, keepZero bool) bool {
	if w.bad || !ok || at < w.t || at > w.end {
		w.bad = true
		return false
	}
	if at > w.t || keepZero {
		w.segs = append(w.segs, Segment{Component: label, From: w.t, To: at})
	}
	w.t = at
	return true
}

// splice appends externally computed segments (the transaction sub-chain)
// if they tile exactly from the frontier.
func (w *walker) splice(segs []Segment) bool {
	if w.bad || len(segs) == 0 || segs[0].From != w.t || segs[len(segs)-1].To > w.end {
		w.bad = true
		return false
	}
	w.segs = append(w.segs, segs...)
	w.t = segs[len(segs)-1].To
	return true
}

// finish closes the walk at the completion time, tail-filling any
// unexplained remainder. It returns whether the chain fully resolved.
func (w *walker) finish(label string) bool {
	if w.t < w.end {
		w.segs = append(w.segs, Segment{Component: label, From: w.t, To: w.end})
	}
	return !w.bad && label != CompUnresolved || w.t == w.end && !w.bad
}

func (ix *index) analyzeOp(tok uint64) OpPath {
	iss, done := ix.opIssue[tok], ix.opDone[tok]
	p := OpPath{
		Tok:   tok,
		Node:  iss.Node,
		Block: iss.Block,
		Write: iss.Flag == FlagWrite,
		Issue: iss.At,
		Done:  done.At,
	}
	if done.Flag == FlagHit {
		p.Segments = []Segment{{Component: CompHit, From: iss.At, To: done.At}}
		p.Resolved = true
		return p
	}
	w := &walker{t: iss.At, end: done.At}
	miss := ix.opMiss[tok]
	w.step(CompCacheLookup, at(miss), miss != nil, true)
	send := ix.reqSend[tok]
	w.step(CompReqSend, at(send), send != nil, true)
	var home int32
	if send != nil {
		if rr := ix.finalRecv[send.Worm]; w.step(CompReqNet, at(rr), rr != nil, true) {
			home = rr.Node
		}
	}
	dir := ix.dirDone[tok]
	w.step(CompHomeDir, at(dir), dir != nil, true)
	if !w.bad {
		ix.walkHomeService(w, &p, home, dir.At)
	}
	p.Resolved = w.finish(CompUnresolved) && !w.bad
	p.Segments = w.segs
	return p
}

// walkHomeService continues an op's chain from the home's directory-lookup
// completion to the requester's fill, dispatching on what the home did
// next: a direct reply (clean/uncached/upgrade), an invalidation
// transaction, or a dirty-block fetch.
func (ix *index) walkHomeService(w *walker, p *OpPath, home int32, from sim.Time) {
	reply := ix.findSend(home, p.Block, from, w.end, func(e *Event) bool {
		return (e.Label == LabelReadReply || e.Label == LabelWriteReply) && e.A == uint64(p.Node)
	})
	fetch := ix.findSend(home, p.Block, from, w.end, func(e *Event) bool {
		return e.Label == LabelFetchReq || e.Label == LabelFetchInval
	})
	txn := ix.findTxn(home, p.Block, from, w.end)

	switch {
	case txn != nil && (reply == nil || ix.txnDone[txn.Txn] != nil && ix.txnDone[txn.Txn].At <= reply.At):
		// Invalidation window: splice the transaction's own attribution,
		// then the grant.
		segs, _ := ix.txnSegments(txn.Txn)
		w.step("txn open", txn.At, true, false)
		w.splice(segs)
		td := ix.txnDone[txn.Txn]
		reply = nil
		if td != nil {
			reply = ix.findSend(home, p.Block, td.At, w.end, func(e *Event) bool {
				return (e.Label == LabelReadReply || e.Label == LabelWriteReply) && e.A == uint64(p.Node)
			})
		}
		w.step(CompGrant, at(reply), reply != nil, true)
		ix.walkReply(w, reply)
	case fetch != nil && (reply == nil || fetch.At < reply.At):
		// Dirty-block fetch: home -> owner, then the owner's writeback
		// through the home (4 hops).
		w.step(CompFetchSend, fetch.At, true, true)
		fr := ix.finalRecv[fetch.Worm]
		if !w.step(CompFetchNet, at(fr), fr != nil, true) {
			return
		}
		wb := ix.findSend(fr.Node, p.Block, fr.At, w.end, func(e *Event) bool {
			return e.Label == LabelFetchReply
		})
		w.step(CompOwnerWB, at(wb), wb != nil, true)
		var hr *Event
		if wb != nil {
			hr = ix.finalRecv[wb.Worm]
		}
		if !w.step(CompWBNet, at(hr), hr != nil, true) {
			return
		}
		reply = ix.findSend(home, p.Block, hr.At, w.end, func(e *Event) bool {
			return (e.Label == LabelReadReply || e.Label == LabelWriteReply) && e.A == uint64(p.Node)
		})
		w.step(CompHomeUpdate, at(reply), reply != nil, true)
		ix.walkReply(w, reply)
	case reply != nil:
		// Clean service: memory access + reply straight back.
		w.step(CompMemReply, reply.At, true, true)
		ix.walkReply(w, reply)
	default:
		w.bad = true
	}
}

// walkReply closes a chain over the reply network into the requester.
func (ix *index) walkReply(w *walker, reply *Event) {
	if reply == nil || w.bad {
		w.bad = true
		return
	}
	rr := ix.finalRecv[reply.Worm]
	w.step(CompReplyNet, at(rr), rr != nil, true)
	w.step(CompFill, w.end, true, true)
}

func (ix *index) analyzeTxn(id uint64) TxnPath {
	s, d := ix.txnStart[id], ix.txnDone[id]
	t := TxnPath{
		Txn:     id,
		Home:    s.Node,
		Block:   s.Block,
		Sharers: s.A,
		Groups:  s.B,
		Retries: d.A,
		Start:   s.At,
		End:     d.At,
	}
	t.Segments, t.Resolved = ix.txnSegments(id)
	return t
}

// txnSegments attributes one transaction's window. The chain anchors on
// the critical acknowledgment — the last ack the home received — and walks
// backward through the worm that carried it: the sharer that launched it,
// that sharer's invalidation delivery, and the home's invalidation send.
// Everything before the critical inval send (group serialization, earlier
// attempts of a retried transaction) folds into the send-occupancy
// segment; the tiling stays exact.
func (ix *index) txnSegments(id uint64) ([]Segment, bool) {
	s, d := ix.txnStart[id], ix.txnDone[id]
	home := s.Node
	whole := []Segment{{Component: CompAckCollect, From: s.At, To: d.At}}
	var ack *Event
	for _, e := range ix.recvsByTxn[id] {
		if e.Node == home && (e.Label == LabelInvalAck || e.Label == LabelGatherAck) && e.At <= d.At {
			ack = e
		}
	}
	if ack == nil {
		if s.A == 0 {
			// No remote sharers: the home invalidated its own copy locally.
			return []Segment{{Component: CompHomeLocalInval, From: s.At, To: d.At}}, true
		}
		return whole, false
	}
	ackSend := ix.sendByWorm[ack.Worm]
	if ackSend == nil || ackSend.At > ack.At {
		return whole, false
	}
	launcher := ackSend.Node
	var invRecv *Event
	for _, e := range ix.recvsByTxn[id] {
		if e.Node == launcher && e.Label == LabelInval && e.At <= ackSend.At {
			invRecv = e
		}
	}
	if invRecv == nil {
		return whole, false
	}
	invSend := ix.sendByWorm[invRecv.Worm]
	if invSend == nil || invSend.At > invRecv.At || invSend.At < s.At {
		return whole, false
	}
	return []Segment{
		{Component: CompInvalSend, From: s.At, To: invSend.At},
		{Component: CompInvalNet, From: invSend.At, To: invRecv.At},
		{Component: CompSharerInval, From: invRecv.At, To: ackSend.At},
		{Component: CompAckNet, From: ackSend.At, To: ack.At},
		{Component: CompAckProc, From: ack.At, To: d.At},
	}, true
}

// findSend returns the earliest MsgSend at node for block in [from, until]
// that satisfies match.
func (ix *index) findSend(node int32, block uint64, from, until sim.Time, match func(*Event) bool) *Event {
	for _, e := range ix.sendsAt[node] {
		if e.At < from || e.Block != block {
			continue
		}
		if e.At > until {
			return nil
		}
		if match(e) {
			return e
		}
	}
	return nil
}

// findTxn returns the earliest transaction opened at node for block in
// [from, until].
func (ix *index) findTxn(node int32, block uint64, from, until sim.Time) *Event {
	var best *Event
	for _, tid := range ix.txnIDs {
		e := ix.txnStart[tid]
		if e.Node != node || e.Block != block || e.At < from || e.At > until {
			continue
		}
		if best == nil || e.At < best.At {
			best = e
		}
	}
	return best
}

// at returns an event's time, or zero for nil (the ok flag passed to
// walker.step carries the nil-ness).
func at(e *Event) sim.Time {
	if e == nil {
		return 0
	}
	return e.At
}

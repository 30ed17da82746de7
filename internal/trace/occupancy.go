package trace

import (
	"sort"

	"repro/internal/sim"
)

// This file is the occupancy profiler: it folds a recording's worm
// hold/release pairs into per-directed-link busy time and its server-busy
// intervals into per-node protocol-controller occupancy, the substrate of
// the E27 occupancy experiment and dsmsimctl trace's -occupancy heatmaps.

// HistBuckets is the number of power-of-two duration buckets in a node's
// service-occupancy histogram: bucket i counts controller tasks whose cost
// was in [2^i, 2^(i+1)) cycles (bucket 0 also absorbs zero-cost tasks).
const HistBuckets = 16

// LinkUse is the accumulated occupancy of one directed channel (From==To
// for injection channels, distinct nodes for mesh links) on one virtual
// network.
type LinkUse struct {
	From, To int32
	VN       uint8
	Busy     sim.Time
	Holds    uint64
}

// NodeUse is the accumulated protocol-controller occupancy of one node.
type NodeUse struct {
	Node    int32
	Busy    sim.Time
	Tasks   uint64
	MaxTask sim.Time
	Hist    [HistBuckets]uint64
}

// Profile is the result of an occupancy pass over a recording.
type Profile struct {
	// Horizon is the profiling window's end: the latest cycle any event or
	// busy interval touches. Utilization figures divide by it.
	Horizon sim.Time
	Links   []LinkUse // sorted by (From, To, VN)
	Nodes   []NodeUse // sorted by Node
	// OpenHolds counts channel holds never closed by a release or kill
	// (ring wrap-around artifacts); they are charged up to Horizon.
	OpenHolds int
	// Reopened counts holds whose matching release was lost to ring
	// wrap-around before a second hold of the same channel slot arrived.
	Reopened int
}

type linkKey struct {
	from, to int32
	vn       uint8
}

type holdKey struct {
	worm uint64
	idx  uint64
}

type openHold struct {
	link  linkKey
	start sim.Time
}

// Occupancy folds events into an occupancy profile. Events must be in
// emission order (Recorder.Events or a trace file's Events).
func Occupancy(events []Event) *Profile {
	links := make(map[linkKey]*LinkUse)
	nodes := make(map[int32]*NodeUse)
	open := make(map[holdKey]openHold)
	openByWorm := make(map[uint64][]holdKey)
	p := &Profile{}

	link := func(k linkKey) *LinkUse {
		l := links[k]
		if l == nil {
			l = &LinkUse{From: k.from, To: k.to, VN: k.vn}
			links[k] = l
		}
		return l
	}
	node := func(id int32) *NodeUse {
		n := nodes[id]
		if n == nil {
			n = &NodeUse{Node: id}
			nodes[id] = n
		}
		return n
	}
	closeHold := func(k holdKey, at sim.Time) {
		h, ok := open[k]
		if !ok {
			return
		}
		delete(open, k)
		l := link(h.link)
		if at > h.start {
			l.Busy += at - h.start
		}
	}

	for i := range events {
		ev := &events[i]
		if ev.At > p.Horizon {
			p.Horizon = ev.At
		}
		switch ev.Kind {
		case KindWormHold:
			k := holdKey{worm: ev.Worm, idx: ev.A}
			if _, ok := open[k]; ok {
				// The matching release was overwritten in the ring; restart
				// the interval rather than invent busy time.
				p.Reopened++
				delete(open, k)
			}
			lk := linkKey{from: int32(ev.B), to: ev.Node, vn: ev.Flag}
			open[k] = openHold{link: lk, start: ev.At}
			openByWorm[ev.Worm] = append(openByWorm[ev.Worm], k)
			link(lk).Holds++
		case KindWormRelease:
			closeHold(holdKey{worm: ev.Worm, idx: ev.A}, ev.At)
		case KindWormKill:
			// A killed worm's tail never drains; every channel it still
			// holds is torn down at the kill cycle.
			for _, k := range openByWorm[ev.Worm] {
				closeHold(k, ev.At)
			}
			delete(openByWorm, ev.Worm)
		case KindServerBusy:
			n := node(ev.Node)
			start, end := sim.Time(ev.A), sim.Time(ev.B)
			cost := end - start
			n.Busy += cost
			n.Tasks++
			if cost > n.MaxTask {
				n.MaxTask = cost
			}
			n.Hist[histBucket(cost)]++
			if end > p.Horizon {
				p.Horizon = end
			}
		case KindOpIssue, KindOpMiss, KindOpDone, KindMsgSend, KindMsgRecv, KindDirDone,
			KindTxnStart, KindTxnDone, KindTxnRetry, KindWormInject, KindWormHead,
			KindWormBlock, KindWormGrant, KindWormDrain, KindWormDeliver, KindWormDone,
			KindWormPark, KindWormResume, KindAckPost, KindFaultDrop, KindFaultStall,
			KindFaultSlow, KindFaultAckLoss, KindEngineQueue:
			// No occupancy contribution.
		default:
			panic("trace: unknown event kind in Occupancy")
		}
	}

	// Charge holds that never closed (wrap artifacts, or a recording cut
	// mid-flight) up to the horizon, deterministically.
	var dangling []holdKey
	for k := range open {
		dangling = append(dangling, k)
	}
	sort.Slice(dangling, func(i, j int) bool {
		if dangling[i].worm != dangling[j].worm {
			return dangling[i].worm < dangling[j].worm
		}
		return dangling[i].idx < dangling[j].idx
	})
	p.OpenHolds = len(dangling)
	for _, k := range dangling {
		closeHold(k, p.Horizon)
	}

	var lkeys []linkKey
	for k := range links {
		lkeys = append(lkeys, k)
	}
	sort.Slice(lkeys, func(i, j int) bool {
		a, b := lkeys[i], lkeys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.vn < b.vn
	})
	for _, k := range lkeys {
		p.Links = append(p.Links, *links[k])
	}

	var nkeys []int32
	for id := range nodes {
		nkeys = append(nkeys, id)
	}
	sort.Slice(nkeys, func(i, j int) bool { return nkeys[i] < nkeys[j] })
	for _, id := range nkeys {
		p.Nodes = append(p.Nodes, *nodes[id])
	}
	return p
}

// histBucket maps a task cost to its histogram bucket.
func histBucket(cost sim.Time) int {
	b := 0
	for cost > 1 && b < HistBuckets-1 {
		cost >>= 1
		b++
	}
	return b
}

// Util is l's busy fraction of the profile window.
func (p *Profile) Util(l LinkUse) float64 {
	if p.Horizon == 0 {
		return 0
	}
	return float64(l.Busy) / float64(p.Horizon)
}

// NodeShare is n's controller-busy fraction of the profile window.
func (p *Profile) NodeShare(n NodeUse) float64 {
	if p.Horizon == 0 {
		return 0
	}
	return float64(n.Busy) / float64(p.Horizon)
}

// MeshLinks filters out injection channels (From==To), returning only
// node-to-node channel occupancy.
func (p *Profile) MeshLinks() []LinkUse {
	var out []LinkUse
	for _, l := range p.Links {
		if l.From != l.To {
			out = append(out, l)
		}
	}
	return out
}

// HottestLink returns the mesh link with the most busy time (ties broken
// by sort order); ok is false if the profile saw no mesh links.
func (p *Profile) HottestLink() (best LinkUse, ok bool) {
	for _, l := range p.MeshLinks() {
		if !ok || l.Busy > best.Busy {
			best, ok = l, true
		}
	}
	return best, ok
}

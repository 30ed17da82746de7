package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Degraded routing: path construction that avoids permanently dead links and
// routers while staying base-routing-conformed wherever possible. The healthy
// fast paths (UnicastPath, PathThrough) stay untouched; these entry points are
// consulted only when a hard-fault schedule is active, so a fault-free run
// never pays for them.

// searchPorts fixes the neighbor-expansion order of every degraded-path
// search. The order is part of the deterministic-replay contract: two runs
// with the same dead set must pick the same detours.
var searchPorts = [4]topology.Port{topology.East, topology.West, topology.North, topology.South}

// PathAvoiding returns a base-conformed path from src to dst that crosses no
// dead link, or ok=false when none exists. It searches the product graph of
// (mesh node, conformance-DFA state) breadth-first, so the result is a
// shortest conformed live path; because every returned path conforms to the
// base routing, it uses only turns the healthy channel-dependency graph
// already proves deadlock-free — removing links from an acyclic CDG cannot
// create a cycle.
func (b Base) PathAvoiding(m *topology.Mesh, src, dst topology.NodeID, dead *topology.DeadSet) ([]topology.NodeID, bool) {
	if src == dst {
		return []topology.NodeID{src}, true
	}
	if dead.Empty() {
		return b.UnicastPath(m, src, dst), true
	}
	if dead.RouterDead(src) || dead.RouterDead(dst) {
		return nil, false
	}
	states := b.stateCount()
	size := m.Nodes() * states
	// parent[node*states+state] encodes the predecessor product vertex, or
	// -1 for unvisited and -2 for the BFS root.
	parent := make([]int32, size)
	for i := range parent {
		parent[i] = -1
	}
	start := int(src)*states + int(dfaStart)
	parent[start] = -2
	queue := make([]int32, 0, size)
	queue = append(queue, int32(start))
	for len(queue) > 0 {
		v := int(queue[0])
		queue = queue[1:]
		node := topology.NodeID(v / states)
		st := dfaState(v % states)
		for _, mv := range searchPorts {
			next, ok := m.Neighbor(node, mv)
			if !ok || dead.LinkDead(node, next) {
				continue
			}
			ns := b.step(st, mv)
			if ns == dfaFail {
				continue
			}
			w := int(next)*states + int(ns)
			if parent[w] != -1 {
				continue
			}
			parent[w] = int32(v)
			if next == dst {
				return reconstruct(parent, w, states), true
			}
			queue = append(queue, int32(w))
		}
	}
	return nil, false
}

// reconstruct walks the parent chain of a product-graph BFS back to the root
// and returns the node path in forward order.
func reconstruct(parent []int32, end, states int) []topology.NodeID {
	var rev []topology.NodeID
	for v := end; v != -2; v = int(parent[v]) {
		rev = append(rev, topology.NodeID(v/states))
	}
	path := make([]topology.NodeID, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path
}

// livePath returns a shortest path from src to dst over live links with no
// conformance constraint, or ok=false when the live fabric disconnects the
// pair. RelayRoute uses it as the fallback skeleton when no single conformed
// path survives.
func livePath(m *topology.Mesh, src, dst topology.NodeID, dead *topology.DeadSet) ([]topology.NodeID, bool) {
	if src == dst {
		return []topology.NodeID{src}, true
	}
	if dead.RouterDead(src) || dead.RouterDead(dst) {
		return nil, false
	}
	parent := make([]int32, m.Nodes())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = -2
	queue := make([]topology.NodeID, 0, m.Nodes())
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, mv := range searchPorts {
			next, ok := m.Neighbor(v, mv)
			if !ok || dead.LinkDead(v, next) || parent[next] != -1 {
				continue
			}
			parent[next] = int32(v)
			if next == dst {
				return reconstruct(parent, int(next), 1), true
			}
			queue = append(queue, next)
		}
	}
	return nil, false
}

// conformedPrefix returns the longest prefix of path (which must start fresh,
// i.e. from an injection point) that the base routing's conformance DFA
// accepts. The first hop of any path conforms from the start state under all
// three bases, so the prefix always makes at least one hop of progress.
func (b Base) conformedPrefix(m *topology.Mesh, path []topology.NodeID) []topology.NodeID {
	s := dfaStart
	for i := 1; i < len(path); i++ {
		s = b.step(s, hopDir(m, path[i-1], path[i]))
		if s == dfaFail {
			return path[:i]
		}
	}
	return path
}

// RelayRoute plans a multi-leg route from src to dst across the degraded
// fabric: a sequence of legs, each individually base-conformed and crossing
// no dead link, where the head of each leg is the tail of the previous one.
// A worm travels one leg at a time; at each intermediate relay node the
// message is consumed and re-injected (store-and-forward at the pivot), which
// resets the conformance DFA and breaks any channel dependency between legs:
// the pivot takes the whole message off the network before it injects the
// next leg, so no leg holds a channel while it waits for another's. The
// common case is a single leg (PathAvoiding succeeded); relays appear only
// when the dead set severs every conformed path.
//
// ok=false means dst is unreachable on the live fabric (its router died or
// the failure disconnected it), which the fault layer's connectivity-
// preserving victim selection rules out for router-alive endpoints.
func (b Base) RelayRoute(m *topology.Mesh, src, dst topology.NodeID, dead *topology.DeadSet) ([][]topology.NodeID, bool) {
	if src == dst {
		return [][]topology.NodeID{{src}}, true
	}
	var legs [][]topology.NodeID
	cur := src
	for cur != dst {
		if leg, ok := b.PathAvoiding(m, cur, dst, dead); ok {
			return append(legs, leg), true
		}
		skel, ok := livePath(m, cur, dst, dead)
		if !ok {
			return nil, false
		}
		// Take the maximal conformed prefix as one leg; the next iteration
		// replans from its tail with a fresh DFA. Each leg shortens the
		// remaining shortest-path distance by at least one hop, so the loop
		// terminates.
		leg := b.conformedPrefix(m, skel)
		legs = append(legs, leg)
		cur = leg[len(leg)-1]
	}
	return legs, true
}

// PathThroughAvoiding is PathThrough restricted to legs whose materialized
// hops cross no dead link: the degraded re-realization used when a grouping
// scheme tries to keep a multidestination group together around a failure.
// It runs PathThrough's own search with the dead-link filter on. It returns
// an error when no conformed live path visits the waypoints in order;
// callers fall back to splitting the group.
func (b Base) PathThroughAvoiding(m *topology.Mesh, waypoints []topology.NodeID, dead *topology.DeadSet) ([]topology.NodeID, error) {
	if dead.Empty() {
		return b.PathThrough(m, waypoints)
	}
	if len(waypoints) == 0 {
		return nil, fmt.Errorf("routing: empty waypoint list")
	}
	for _, w := range waypoints {
		if dead.RouterDead(w) {
			return nil, fmt.Errorf("routing: waypoint %v sits behind a dead router", m.Coord(w))
		}
	}
	path, ok := new(Search).through(b, nil, m, waypoints, dead)
	if !ok {
		return nil, fmt.Errorf("routing: no %v-conformed live path through %d waypoints from %v",
			b, len(waypoints), m.Coord(waypoints[0]))
	}
	return path, nil
}

// legLive reports whether a leg realization's concrete hop sequence crosses
// only live links, walking the same hops appendLeg would materialize.
//
//simcheck:noalloc
func legLive(m *topology.Mesh, a topology.NodeID, opt legOpt, dead *topology.DeadSet) bool {
	cur := a
	for _, run := range opt.runs() {
		for i := 0; i < run.n; i++ {
			next, ok := m.Neighbor(cur, run.mv)
			if !ok {
				panic("routing: leg fell off mesh")
			}
			if dead.LinkDead(cur, next) {
				return false
			}
			cur = next
		}
	}
	return true
}

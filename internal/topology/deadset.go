package topology

import "sort"

// LinkKey canonically identifies an undirected mesh link: A and B are the
// endpoint node IDs with A < B, so the key of a link is independent of
// traversal direction.
type LinkKey struct {
	A, B NodeID
}

// MakeLinkKey returns the canonical key of the link between a and b.
func MakeLinkKey(a, b NodeID) LinkKey {
	if a > b {
		a, b = b, a
	}
	return LinkKey{A: a, B: b}
}

// DeadSet is the set of permanently failed fabric resources at one instant:
// dead links and dead routers. A dead router implicitly kills every link
// incident to it (LinkDead reports those links dead without them being in
// the link set). The zero value / nil pointer both mean "nothing dead".
type DeadSet struct {
	links   map[LinkKey]bool
	routers map[NodeID]bool
}

// NewDeadSet returns an empty set.
func NewDeadSet() *DeadSet {
	return &DeadSet{links: map[LinkKey]bool{}, routers: map[NodeID]bool{}}
}

// AddLink marks the undirected link a-b dead.
func (d *DeadSet) AddLink(a, b NodeID) { d.links[MakeLinkKey(a, b)] = true }

// AddRouter marks node n's router dead; every link incident to n dies with
// it, and the node behind it is unreachable.
func (d *DeadSet) AddRouter(n NodeID) { d.routers[n] = true }

// LinkDead reports whether the undirected link a-b is unusable: either the
// link itself died, or one of its endpoint routers did.
func (d *DeadSet) LinkDead(a, b NodeID) bool {
	if d == nil {
		return false
	}
	return d.links[MakeLinkKey(a, b)] || d.routers[a] || d.routers[b]
}

// RouterDead reports whether node n's router is dead.
func (d *DeadSet) RouterDead(n NodeID) bool {
	return d != nil && d.routers[n]
}

// Empty reports whether nothing is dead.
func (d *DeadSet) Empty() bool {
	return d == nil || (len(d.links) == 0 && len(d.routers) == 0)
}

// Links returns the explicitly dead links in sorted order (links implied by
// dead routers are not listed).
func (d *DeadSet) Links() []LinkKey {
	if d == nil {
		return nil
	}
	out := make([]LinkKey, 0, len(d.links))
	for k := range d.links {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Routers returns the dead routers in sorted order.
func (d *DeadSet) Routers() []NodeID {
	if d == nil {
		return nil
	}
	out := make([]NodeID, 0, len(d.routers))
	for n := range d.routers {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

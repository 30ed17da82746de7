package grouping

import (
	"slices"

	"repro/internal/topology"
)

// PathLive reports whether the group's request path crosses only live links.
func (g Group) PathLive(dead *topology.DeadSet) bool {
	for i := 1; i < len(g.Path); i++ {
		if dead.LinkDead(g.Path[i-1], g.Path[i]) {
			return false
		}
	}
	return true
}

// GroupsAvoiding partitions sharers into multidestination worms on a
// degraded fabric. The healthy partition is computed first so that, with an
// empty dead set, the result is byte-identical to Groups (the
// zero-perturbation contract). Groups whose paths survive are kept as-is;
// a severed group is re-realized around the failure by re-running the BRCP
// path search with dead links excluded (same member sequence, different leg
// shapes). Members of groups that cannot be re-realized — the conformance
// discipline admits no live path through them — are returned in fallback,
// sorted, for the caller to invalidate over the unicast retry path.
//
// Sharers behind dead routers must be filtered out by the caller before
// grouping (the directory treats them as implicitly invalidated); their
// presence here would simply land them in fallback. The BR comparator's
// static Hamiltonian paths have no conformance-directed re-realization, so
// its severed groups always fall back.
func GroupsAvoiding(s Scheme, m *topology.Mesh, home topology.NodeID, sharers []topology.NodeID, dead *topology.DeadSet) (groups []Group, fallback []topology.NodeID) {
	full := Groups(s, m, home, sharers)
	if dead.Empty() {
		return full, nil
	}
	for _, g := range full {
		if g.PathLive(dead) {
			groups = append(groups, g)
			continue
		}
		if g.Conformed && len(g.Members) > 0 {
			wp := append([]topology.NodeID{home}, g.Members...)
			if path, err := g.Base.PathThroughAvoiding(m, wp, dead); err == nil {
				groups = append(groups, Group{
					Members: g.Members, Path: path, Base: g.Base, Conformed: true})
				continue
			}
		}
		fallback = append(fallback, g.Members...)
	}
	slices.Sort(fallback)
	return groups, fallback
}

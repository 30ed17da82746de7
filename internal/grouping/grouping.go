// Package grouping implements the paper's six sharer-grouping schemes: how
// a home node partitions the presence bits of a directory entry into
// multidestination worms whose paths conform to the base routing (BRCP).
//
// Schemes (see DESIGN.md section 2):
//
//	UIUA      unicast invalidations, unicast acks (baseline framework)
//	MIUAEC    e-cube column-grouped multidestination invalidations, unicast acks
//	MIMAEC    e-cube column groups, i-reserve + i-gather worms
//	MIMAECRC  e-cube row-column merged groups (home-row sharers folded into
//	          column worms), i-reserve + i-gather worms
//	MIUAPA    planar-adaptive dominance-chain groups (diagonals), unicast acks
//	MIMAPA    planar-adaptive chain groups, i-reserve + i-gather worms
//	MIUATM    west-first snake groups, unicast acks
//	MIMATM    west-first snake groups, i-reserve + i-gather worms
//	BR        hierarchical-ring-style broadcast comparator [29]: worms follow
//	          a static Hamiltonian (boustrophedon) path, unicast acks
package grouping

import (
	"fmt"
	"slices"

	"repro/internal/report"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Scheme selects an invalidation grouping scheme.
type Scheme int

const (
	UIUA Scheme = iota
	MIUAEC
	MIMAEC
	MIMAECRC
	MIUAPA
	MIMAPA
	MIUATM
	MIMATM
	BR
	numSchemes
)

// AllSchemes lists every scheme in presentation order for sweeps.
var AllSchemes = []Scheme{UIUA, MIUAEC, MIMAEC, MIMAECRC, MIUAPA, MIMAPA, MIUATM, MIMATM, BR}

var schemeNames = [numSchemes]string{
	"UI-UA", "MI-UA-ec", "MI-MA-ec", "MI-MA-ecrc",
	"MI-UA-pa", "MI-MA-pa", "MI-UA-tm", "MI-MA-tm", "BR",
}

func (s Scheme) String() string {
	if s >= 0 && s < numSchemes {
		return schemeNames[s]
	}
	if s == ADAPT {
		return "ADAPT"
	}
	if s == UMC {
		return "U-tree"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Parse returns the scheme with the given name (as produced by String).
func Parse(name string) (Scheme, error) {
	for i, n := range schemeNames {
		if n == name {
			return Scheme(i), nil
		}
	}
	if name == "ADAPT" {
		return ADAPT, nil
	}
	if name == "U-tree" {
		return UMC, nil
	}
	return 0, fmt.Errorf("grouping: unknown scheme %q", name)
}

// Base returns the base routing the scheme's request worms follow.
func (s Scheme) Base() routing.Base {
	switch s {
	case MIUATM, MIMATM:
		return routing.WestFirst
	case MIUAPA, MIMAPA, ADAPT:
		// ADAPT presumes a router flexible enough for every candidate's
		// turns; its unicast traffic uses minimal adaptive paths.
		return routing.PlanarAdaptive
	case UIUA, UMC, BR, MIUAEC, MIMAEC, MIMAECRC:
		return routing.ECube
	default:
		panic("grouping: no base routing for scheme " + s.String())
	}
}

// MultidestRequest reports whether invalidations travel as multidestination
// worms (vs one unicast message per sharer).
func (s Scheme) MultidestRequest() bool { return s != UIUA }

// GatherAck reports whether acknowledgments are collected by i-gather worms
// (the MI-MA frameworks) rather than sent as unicast messages.
func (s Scheme) GatherAck() bool {
	return s == MIMAEC || s == MIMAECRC || s == MIMAPA || s == MIMATM || s == ADAPT
}

// Group is one worm's worth of sharers: the members in visit order and the
// full request path from the home node through all of them.
type Group struct {
	// Members are the sharers this worm serves, in path (visit) order.
	Members []topology.NodeID
	// Path is the request worm's full node path: home first, the last
	// member last.
	Path []topology.NodeID
	// Base is the base routing this group's path conforms to. Conformed is
	// false only for the BR comparator, whose static Hamiltonian paths are
	// path-based routing rather than BRCP.
	Base      routing.Base
	Conformed bool
}

// Last returns the final member (the gather worm's launch point under
// MI-MA).
func (g Group) Last() topology.NodeID { return g.Members[len(g.Members)-1] }

// Draw renders the mesh with the group's worm path over it, north up:
// H the home, * a sharer on the path, S a sharer off it, + a node the worm
// only passes through, . any other node.
func (g Group) Draw(m *topology.Mesh, home topology.NodeID, sharers []topology.NodeID) string {
	onPath := make(map[topology.NodeID]bool, len(g.Path))
	for _, n := range g.Path {
		onPath[n] = true
	}
	isSharer := make(map[topology.NodeID]bool, len(sharers))
	for _, n := range sharers {
		isSharer[n] = true
	}
	return report.Grid(m.Width(), m.Height(), func(x, y int) byte {
		n := m.ID(topology.Coord{X: x, Y: y})
		switch {
		case n == home:
			return 'H'
		case isSharer[n] && onPath[n]:
			return '*'
		case isSharer[n]:
			return 'S'
		case onPath[n]:
			return '+'
		}
		return '.'
	})
}

// ReversePath returns the path reversed: the i-gather worm's route from the
// last member back to the home node. On the reply virtual network (which
// routes with the reverse base routing) this path is BRCP-conformed
// whenever the request path was.
func (g Group) ReversePath() []topology.NodeID {
	rev := make([]topology.NodeID, len(g.Path))
	for i, n := range g.Path {
		rev[len(g.Path)-1-i] = n
	}
	return rev
}

// Groups partitions sharers (which must not contain home or duplicates)
// into worms under the scheme. The result is deterministic. An empty
// sharer set yields nil.
func Groups(s Scheme, m *topology.Mesh, home topology.NodeID, sharers []topology.NodeID) []Group {
	if len(sharers) == 0 {
		return nil
	}
	ordered := append([]topology.NodeID(nil), sharers...)
	slices.Sort(ordered)
	for i, sh := range ordered {
		if sh == home {
			panic("grouping: home listed as sharer")
		}
		if i > 0 && sh == ordered[i-1] {
			panic("grouping: duplicate sharer")
		}
	}

	switch s {
	case UIUA:
		return unicastGroups(m, home, ordered)
	case MIUAEC, MIMAEC:
		return columnGroups(m, home, ordered, false)
	case MIMAECRC:
		return columnGroups(m, home, ordered, true)
	case MIUAPA, MIMAPA:
		return planarGroups(m, home, ordered)
	case MIUATM, MIMATM:
		return snakeGroups(m, home, ordered)
	case BR, UMC:
		// UMC's tree lives in the coherence layer; its Groups form (like
		// BR's ack side) is plain unicast.
		if s == UMC {
			return unicastGroups(m, home, ordered)
		}
		return hamiltonianGroups(m, home, ordered)
	case ADAPT:
		return adaptiveGroups(m, home, ordered)
	}
	panic("grouping: unknown scheme " + s.String())
}

// unicastGroups puts every sharer in its own single-destination group.
func unicastGroups(m *topology.Mesh, home topology.NodeID, sharers []topology.NodeID) []Group {
	groups := make([]Group, 0, len(sharers))
	for _, sh := range sharers {
		groups = append(groups, Group{
			Members:   []topology.NodeID{sh},
			Path:      routing.ECube.UnicastPath(m, home, sh),
			Base:      routing.ECube,
			Conformed: true,
		})
	}
	return groups
}

// buildGroup assembles a Group from ordered waypoints, constructing and
// checking the BRCP path. A failure here is a grouping-algorithm bug.
func buildGroup(base routing.Base, m *topology.Mesh, home topology.NodeID, members []topology.NodeID) Group {
	wp := append([]topology.NodeID{home}, members...)
	path, err := base.PathThrough(m, wp)
	if err != nil {
		panic(fmt.Sprintf("grouping: scheme produced non-conformed group: %v", err))
	}
	return Group{Members: members, Path: path, Base: base, Conformed: true}
}

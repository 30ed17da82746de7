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
	"cmp"
	"encoding/json"
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
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Parse returns the scheme with the given name (as produced by String).
func Parse(name string) (Scheme, error) {
	for i, n := range schemeNames {
		if n == name {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("grouping: unknown scheme %q", name)
}

// UnmarshalJSON decodes a scheme from its integer or its name (String's);
// encoding stays the integer, so point fingerprints do not change.
func (s *Scheme) UnmarshalJSON(b []byte) (err error) {
	var name string
	if err = json.Unmarshal(b, (*int)(s)); err != nil && json.Unmarshal(b, &name) == nil {
		*s, err = Parse(name)
	}
	return err
}

// Base returns the base routing the scheme's request worms follow.
func (s Scheme) Base() routing.Base {
	switch s {
	case MIUATM, MIMATM:
		return routing.WestFirst
	case MIUAPA, MIMAPA:
		return routing.PlanarAdaptive
	case UIUA, BR, MIUAEC, MIMAEC, MIMAECRC:
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
	return s == MIMAEC || s == MIMAECRC || s == MIMAPA || s == MIMATM
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
// sharer set yields nil. It plans on a fresh Planner into a fresh Plan;
// callers that group often keep both.
func Groups(s Scheme, m *topology.Mesh, home topology.NodeID, sharers []topology.NodeID) []Group {
	var p Planner
	var pl Plan
	p.Plan(&pl, s, m, home, sharers)
	return pl.Groups
}

// Plan is one partition of a sharer set into worms. Its groups' Members and
// Path are capacity-limited subslices of one node arena the Plan owns, so
// nothing outside the Plan can disturb them. Planning into a Plan again
// overwrites it, reusing the arena and the group slice once they have grown
// to size: whoever holds a Plan decides when its groups are dead.
type Plan struct {
	Groups []Group
	arena  []topology.NodeID
}

// Planner partitions sharer sets into worms exactly as Groups does, on
// scratch it keeps from call to call: the sorted sharer copy, the schemes'
// per-column buckets and chains, the path search's memo, and the plan under
// construction. A steady-state Plan into a reused Plan therefore allocates
// nothing, whatever the sharer count. The zero Planner is ready to use; a
// Planner must not be shared between goroutines.
type Planner struct {
	search routing.Search
	sorted []topology.NodeID // the sharers, ascending
	wp     []topology.NodeID // one group's waypoints: the home, then its members

	// The plan under construction: every group's members and path, each
	// concatenated in group order, and one span per closed group.
	members []topology.NodeID
	paths   []topology.NodeID
	spans   []groupSpan

	// Scheme scratch. up and down are per-column Y lists: column grouping's
	// sharers above and below the home row; the snake's unvisited rows use
	// up alone.
	up, down   [][]int
	rowE, rowW []int // column grouping's home-row sharers' X, east and west of the home
	fwd, bwd   []int // BR: sharer positions ahead of and behind the home on the snake
	pts        []planarPt
	chainY     []int // planar: each open chain's last Y
	chainOf    []int // planar: the chain each sorted point joined
}

// groupSpan closes one group of a plan under construction: the end offsets
// of its members and path in Planner.members and Planner.paths (each starts
// where the previous group's ends).
type groupSpan struct {
	members, path int
	base          routing.Base
	conformed     bool
}

// Plan partitions sharers as Groups does, into pl: pl's previous groups
// are overwritten.
//
//simcheck:noalloc
func (p *Planner) Plan(pl *Plan, s Scheme, m *topology.Mesh, home topology.NodeID, sharers []topology.NodeID) {
	pl.Groups = pl.Groups[:0]
	if len(sharers) == 0 {
		return
	}
	p.sorted = append(p.sorted[:0], sharers...)
	slices.Sort(p.sorted)
	for i, sh := range p.sorted {
		if sh == home {
			panic("grouping: home listed as sharer")
		}
		if i > 0 && sh == p.sorted[i-1] {
			panic("grouping: duplicate sharer")
		}
	}
	p.members, p.paths, p.spans = p.members[:0], p.paths[:0], p.spans[:0]
	p.plan(s, m, home)

	arena := pl.arena[:0]
	arena = append(arena, p.members...)
	arena = append(arena, p.paths...)
	pl.arena = arena
	paths := arena[len(p.members):]
	mem, path := 0, 0
	for _, sp := range p.spans {
		pl.Groups = append(pl.Groups, Group{
			Members:   arena[mem:sp.members:sp.members],
			Path:      paths[path:sp.path:sp.path],
			Base:      sp.base,
			Conformed: sp.conformed,
		})
		mem, path = sp.members, sp.path
	}
}

// plan appends scheme s's groups for p.sorted to the plan under
// construction.
//
//simcheck:noalloc
func (p *Planner) plan(s Scheme, m *topology.Mesh, home topology.NodeID) {
	switch s {
	case UIUA:
		p.unicastGroups(m, home)
	case MIUAEC, MIMAEC:
		p.columnGroups(m, home, false)
	case MIMAECRC:
		p.columnGroups(m, home, true)
	case MIUAPA, MIMAPA:
		p.planarGroups(m, home)
	case MIUATM, MIMATM:
		p.snakeGroups(m, home)
	case BR:
		p.hamiltonianGroups(m, home)
	default:
		panic("grouping: unknown scheme " + s.String())
	}
}

// unicastGroups puts every sharer in its own single-destination group.
//
//simcheck:noalloc
func (p *Planner) unicastGroups(m *topology.Mesh, home topology.NodeID) {
	for _, sh := range p.sorted {
		p.members = append(p.members, sh)
		p.paths = routing.ECube.UnicastPathInto(p.paths, m, home, sh)
		p.endGroup(routing.ECube, true)
	}
}

// endGroup closes the open group: the members and path appended since the
// previous group closed.
//
//simcheck:noalloc
func (p *Planner) endGroup(base routing.Base, conformed bool) {
	p.spans = append(p.spans, groupSpan{members: len(p.members), path: len(p.paths), base: base, conformed: conformed})
}

// conformedGroup closes the open group, whose members are appended, with
// its BRCP path from home through them in order. A failure here is a
// grouping-algorithm bug.
//
//simcheck:noalloc
func (p *Planner) conformedGroup(base routing.Base, m *topology.Mesh, home topology.NodeID) {
	open := 0
	if n := len(p.spans); n > 0 {
		open = p.spans[n-1].members
	}
	p.wp = append(p.wp[:0], home)
	p.wp = append(p.wp, p.members[open:]...)
	path, err := base.PathThroughInto(p.paths, &p.search, m, p.wp)
	if err != nil {
		panic(fmt.Sprintf("grouping: scheme produced non-conformed group: %v", err))
	}
	p.paths = path
	p.endGroup(base, true)
}

// nodeAt returns the node at (x, y).
func nodeAt(m *topology.Mesh, x, y int) topology.NodeID {
	return m.ID(topology.Coord{X: x, Y: y})
}

// columns returns cs as w empty per-column lists, keeping each list's
// capacity for reuse.
//
//simcheck:noalloc
func columns(cs [][]int, w int) [][]int {
	if len(cs) < w {
		cs = slices.Grow(cs, w-len(cs))
	}
	cs = cs[:w]
	for i := range cs {
		cs[i] = cs[i][:0]
	}
	return cs
}

// descending orders ints from largest to smallest (slices.SortFunc).
func descending(a, b int) int { return cmp.Compare(b, a) }

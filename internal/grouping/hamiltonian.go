package grouping

import (
	"slices"

	"repro/internal/routing"
	"repro/internal/topology"
)

// hamiltonianGroups implements the BR comparator: the hierarchical-ring /
// Hamiltonian-path broadcast framework of Mannava, Kumar and Bhuyan [29],
// in the spirit of Lin and Ni's path-based multicast [28]. A single static
// boustrophedon (snake) path over the whole mesh is fixed at configuration
// time; an invalidation worm simply follows it, absorbing at every sharer
// it passes. Sharers "behind" the home on the ring are covered by a second
// worm following the path in the reverse direction (standing in for the
// ring wraparound, which a mesh has no links for).
//
// These paths are not base-routing conformed — that is the framework's
// defining difference from BRCP and the reason it needs its own routing
// support; the simulator moves worms along explicit paths either way.
//
//simcheck:noalloc
func (p *Planner) hamiltonianGroups(m *topology.Mesh, home topology.NodeID) {
	hp := snakePos(m, home)
	fwd, bwd := p.fwd[:0], p.bwd[:0]
	for _, sh := range p.sorted {
		if pos := snakePos(m, sh); pos > hp {
			fwd = append(fwd, pos)
		} else {
			bwd = append(bwd, pos)
		}
	}
	p.fwd, p.bwd = fwd, bwd
	// Positions on the snake are distinct, so both sorts are unique.
	slices.Sort(fwd)
	slices.SortFunc(bwd, descending)
	if len(fwd) > 0 {
		p.snakeWorm(m, hp, fwd, +1)
	}
	if len(bwd) > 0 {
		p.snakeWorm(m, hp, bwd, -1)
	}
}

// snakeWorm closes one BR group: the members at the given snake positions,
// and the path along the snake from the home's position in direction dir
// to the last member.
//
//simcheck:noalloc
func (p *Planner) snakeWorm(m *topology.Mesh, hp int, members []int, dir int) {
	for _, pos := range members {
		p.members = append(p.members, snakeNode(m, pos))
	}
	last := members[len(members)-1]
	for pos := hp; ; pos += dir {
		p.paths = append(p.paths, snakeNode(m, pos))
		if pos == last {
			break
		}
	}
	p.endGroup(routing.ECube, false)
}

// snakePos returns n's position on the boustrophedon: even rows run east,
// odd rows west.
func snakePos(m *topology.Mesh, n topology.NodeID) int {
	c := m.Coord(n)
	if c.Y%2 == 0 {
		return c.Y*m.Width() + c.X
	}
	return c.Y*m.Width() + (m.Width() - 1 - c.X)
}

// snakeNode is snakePos's inverse.
func snakeNode(m *topology.Mesh, pos int) topology.NodeID {
	y, x := pos/m.Width(), pos%m.Width()
	if y%2 != 0 {
		x = m.Width() - 1 - x
	}
	return nodeAt(m, x, y)
}

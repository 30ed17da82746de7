package grouping

import (
	"cmp"
	"slices"

	"repro/internal/routing"
	"repro/internal/topology"
)

// planarGroups implements grouping under planar-adaptive base routing [5].
// A planar-adaptive-conformed path is any monotone staircase, so one worm
// can cover any *chain* of sharers under the dominance order pointing away
// from the home — in particular any diagonal, which neither e-cube nor the
// turn model can follow. Sharers are split into the four quadrants around
// the home; within each quadrant the minimum chain cover is computed with
// the greedy patience argument (optimal by Dilworth's theorem: the chain
// count equals the longest antichain).
//
//simcheck:noalloc
func (p *Planner) planarGroups(m *topology.Mesh, home topology.NodeID) {
	hc := m.Coord(home)
	// Quadrant index: bit 0 = west of home, bit 1 = south of home.
	// Boundary sharers (same row/column as home) fold into the quadrant
	// that treats their zero offset as positive. Coordinates are mirrored
	// so every quadrant reduces to the northeast case (x and y offsets
	// from home both non-negative).
	for q := 0; q < 4; q++ {
		mirrorX, mirrorY := q&1 != 0, q&2 != 0
		pts := p.pts[:0]
		for _, sh := range p.sorted {
			c := m.Coord(sh)
			if (c.X < hc.X) != mirrorX || (c.Y < hc.Y) != mirrorY {
				continue
			}
			dx, dy := c.X-hc.X, c.Y-hc.Y
			if mirrorX {
				dx = -dx
			}
			if mirrorY {
				dy = -dy
			}
			pts = append(pts, planarPt{x: dx, y: dy, n: sh})
		}
		p.pts = pts
		if len(pts) > 0 {
			p.quadrantChains(m, home)
		}
	}
}

// planarPt is a sharer in its quadrant's mirrored coordinates.
type planarPt struct {
	x, y int
	n    topology.NodeID
}

// comparePts orders points by (x, y). Distinct sharers have distinct
// coordinates, so no two points compare equal and the order is unique.
func comparePts(a, b planarPt) int {
	if c := cmp.Compare(a.x, b.x); c != 0 {
		return c
	}
	return cmp.Compare(a.y, b.y)
}

// quadrantChains closes one group per chain of a minimum dominance-chain
// cover of p.pts, in the order the chains open, each chain's members in
// the order they join it.
//
//simcheck:noalloc
func (p *Planner) quadrantChains(m *topology.Mesh, home topology.NodeID) {
	slices.SortFunc(p.pts, comparePts)
	// Greedy chain cover: append each point to the chain whose tail has the
	// largest y still <= the point's y; otherwise open a new chain. With
	// points sorted by (x, y) this yields the minimum number of chains.
	lastY, chainOf := p.chainY[:0], p.chainOf[:0]
	for _, pt := range p.pts {
		best := -1
		for i, y := range lastY {
			if y <= pt.y && (best == -1 || y > lastY[best]) {
				best = i
			}
		}
		if best == -1 {
			best = len(lastY)
			lastY = append(lastY, pt.y)
		} else {
			lastY[best] = pt.y
		}
		chainOf = append(chainOf, best)
	}
	p.chainY, p.chainOf = lastY, chainOf
	for c := range lastY {
		for i, pt := range p.pts {
			if chainOf[i] == c {
				p.members = append(p.members, pt.n)
			}
		}
		p.conformedGroup(routing.PlanarAdaptive, m, home)
	}
}

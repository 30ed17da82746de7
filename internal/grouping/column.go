package grouping

import (
	"slices"

	"repro/internal/routing"
	"repro/internal/topology"
)

// columnGroups implements the e-cube grouping schemes. Sharers are grouped
// by their X coordinate ("organizing presence bits in a column fashion
// along the Y dimension"): a worm for column c leaves the home along its
// row, turns at (c, homeY), and sweeps the column's sharers monotonically.
// Sharers above and below the home row in one column need two worms.
//
// With merged=true (the row-column scheme) the home-row sharers are folded
// as intermediate destinations into the outermost column worm on their side
// instead of getting dedicated worms, which is the minimum worm count
// achievable under e-cube.
//
//simcheck:noalloc
func (p *Planner) columnGroups(m *topology.Mesh, home topology.NodeID, merged bool) {
	hc := m.Coord(home)

	// Partition: per-column up/down Y lists indexed by X, plus the X of
	// each home-row sharer by side.
	p.up, p.down = columns(p.up, m.Width()), columns(p.down, m.Width())
	east, west := p.rowE[:0], p.rowW[:0]
	for _, sh := range p.sorted {
		c := m.Coord(sh)
		switch {
		case c.Y > hc.Y:
			p.up[c.X] = append(p.up[c.X], c.Y)
		case c.Y < hc.Y:
			p.down[c.X] = append(p.down[c.X], c.Y)
		case c.X > hc.X:
			east = append(east, c.X)
		default:
			west = append(west, c.X)
		}
	}
	p.rowE, p.rowW = east, west
	// The outermost occupied column on each side of the home (-1 = none).
	maxEast, minWest := -1, -1
	for x := range p.up {
		if len(p.up[x])+len(p.down[x]) == 0 {
			continue
		}
		if x > hc.X {
			maxEast = x
		}
		if x < hc.X && minWest == -1 {
			minWest = x
		}
	}
	// Every sort in this file orders distinct sharers by one coordinate
	// within a row or column, so no two keys are equal and the order is
	// unique.
	slices.Sort(east)
	slices.SortFunc(west, descending)

	// Merged scheme: fold home-row sharers into the outermost column worm
	// on their side (its row segment passes over them). They are the head
	// of each side's sorted row list; leftovers beyond the outermost column
	// get a dedicated pure-row worm.
	nPrefixE, nPrefixW := 0, 0
	if merged {
		for maxEast != -1 && nPrefixE < len(east) && east[nPrefixE] <= maxEast {
			nPrefixE++
		}
		for minWest != -1 && nPrefixW < len(west) && west[nPrefixW] >= minWest {
			nPrefixW++
		}
	}
	prefixE, rowE := east[:nPrefixE], east[nPrefixE:]
	prefixW, rowW := west[:nPrefixW], west[nPrefixW:]

	for x := range p.up {
		var prefix []int
		switch x {
		case maxEast:
			prefix = prefixE
		case minWest:
			prefix = prefixW
		}
		up, down := p.up[x], p.down[x]
		if len(up) > 0 {
			slices.Sort(up)
			p.columnGroup(m, home, prefix, x, up)
			// The row prefix (if any) went with the up worm; the down worm
			// carries only its column members.
			prefix = nil
		}
		if len(down) > 0 {
			slices.SortFunc(down, descending)
			p.columnGroup(m, home, prefix, x, down)
		}
	}
	// Remaining home-row sharers. Under plain column grouping each home-row
	// sharer is the sole occupant of its presence-bit column, so it gets a
	// dedicated worm. Under the merged scheme only sharers beyond the
	// outermost column remain here; they share one pure-row worm per side.
	for _, row := range [2][]int{rowE, rowW} {
		for i, x := range row {
			p.members = append(p.members, nodeAt(m, x, hc.Y))
			if !merged || i == len(row)-1 {
				p.conformedGroup(routing.ECube, m, home)
			}
		}
	}
}

// columnGroup closes one column worm: the home-row prefix sharers (their X
// on the home row), then column x's sharers in sweep order.
//
//simcheck:noalloc
func (p *Planner) columnGroup(m *topology.Mesh, home topology.NodeID, prefix []int, x int, ys []int) {
	hy := m.Coord(home).Y
	for _, px := range prefix {
		p.members = append(p.members, nodeAt(m, px, hy))
	}
	for _, y := range ys {
		p.members = append(p.members, nodeAt(m, x, y))
	}
	p.conformedGroup(routing.ECube, m, home)
}

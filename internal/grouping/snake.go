package grouping

import (
	"slices"

	"repro/internal/routing"
	"repro/internal/topology"
)

// snakeGroups implements the west-first turn-model grouping. The turn
// model's extra legal turns (N->E, E->S, S->E, E->N) let one worm sweep
// whole regions boustrophedon-style:
//
//   - one eastern worm snakes column-major across all sharers with
//     x >= homeX, alternating sweep directions per column;
//   - one western worm makes its westward hops first along the home row
//     (covering home-row sharers on the way), then snakes east over the
//     remaining western sharers.
//
// A column entered without an intervening eastward hop (the home column,
// or the westernmost column right after the west run) cannot host a
// direction reversal; when sharers sit on both sides of the entry row
// there, the unreachable side spills into an additional worm. Group count
// is therefore <= 2 typically and <= 4 in the worst case, independent of
// the sharer count — the turn-model schemes' key property.
//
//simcheck:noalloc
func (p *Planner) snakeGroups(m *topology.Mesh, home topology.NodeID) {
	hx := m.Coord(home).X
	// p.up[x] holds column x's unvisited member Ys, ascending. The sharers
	// arrive in ascending ID, which within a column is ascending Y.
	p.up = columns(p.up, m.Width())
	for _, sh := range p.sorted {
		c := m.Coord(sh)
		p.up[c.X] = append(p.up[c.X], c.Y)
	}
	p.snakeSide(m, home, hx, m.Width(), true)
	p.snakeSide(m, home, 0, hx, false)
}

// snakeSide builds the worms for one side of the home column: the columns
// [lo, hi) of p.up.
//
//simcheck:noalloc
func (p *Planner) snakeSide(m *topology.Mesh, home topology.NodeID, lo, hi int, eastSide bool) {
	hc := m.Coord(home)
	for p.firstColumn(lo, hi) != -1 {
		curY, lastDir := hc.Y, 0 // lastDir: +1 north, -1 south, 0 none
		prevX := hc.X

		if !eastSide {
			// The westward run travels the home row; it passes home-row
			// sharers in descending x order and ends at the westernmost
			// remaining column.
			for x := hi - 1; x >= lo; x-- {
				if i, ok := slices.BinarySearch(p.up[x], hc.Y); ok {
					p.members = append(p.members, nodeAt(m, x, hc.Y))
					p.up[x] = slices.Delete(p.up[x], i, i+1)
					prevX = x
				}
			}
			west := p.firstColumn(lo, hi)
			if west == -1 {
				p.conformedGroup(routing.WestFirst, m, home)
				return
			}
			// The run continues to the westernmost remaining column even if
			// it holds no home-row sharer.
			if west < prevX {
				prevX = west
			}
		}

		// Each column is visited once per worm, west to east; a visit only
		// ever shrinks its own column.
		for x := lo; x < hi; x++ {
			ys := p.up[x]
			if len(ys) == 0 {
				continue
			}
			yLo, yHi := ys[0], ys[len(ys)-1]
			eSep := x > prevX
			ascOK := curY <= yLo || (eSep && lastDir != +1)
			descOK := curY >= yHi || (eSep && lastDir != -1)

			sweepAsc := true
			switch {
			case ascOK && descOK:
				// Pick the cheaper entry.
				if absInt(curY-yHi) < absInt(curY-yLo) {
					sweepAsc = false
				}
			case ascOK:
			case descOK:
				sweepAsc = false
			default:
				// No eastward separation and sharers on both sides of the
				// entry row: cover the upper side now, spill the rest.
				split, _ := slices.BinarySearch(ys, curY)
				for _, y := range ys[split:] {
					p.members = append(p.members, nodeAt(m, x, y))
				}
				p.up[x] = ys[:split]
				curY, lastDir, prevX = yHi, +1, x
				continue
			}

			entry, exit := yLo, yHi
			if sweepAsc {
				for _, y := range ys {
					p.members = append(p.members, nodeAt(m, x, y))
				}
			} else {
				for i := len(ys) - 1; i >= 0; i-- {
					p.members = append(p.members, nodeAt(m, x, ys[i]))
				}
				entry, exit = yHi, yLo
			}
			if exit != curY || entry != curY {
				if sweepAsc {
					lastDir = +1
				} else {
					lastDir = -1
				}
			}
			curY, prevX = exit, x
			p.up[x] = ys[:0]
		}
		p.conformedGroup(routing.WestFirst, m, home)
	}
}

// firstColumn returns the westernmost column in [lo, hi) with unvisited
// members, or -1.
//
//simcheck:noalloc
func (p *Planner) firstColumn(lo, hi int) int {
	for x := lo; x < hi; x++ {
		if len(p.up[x]) > 0 {
			return x
		}
	}
	return -1
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

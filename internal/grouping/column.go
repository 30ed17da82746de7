package grouping

import (
	"sort"

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
func columnGroups(m *topology.Mesh, home topology.NodeID, sharers []topology.NodeID, merged bool) []Group {
	if m.Wrap() {
		// On a torus every column is a ring: one worm enters the column at
		// the home row and sweeps the whole ring in one direction, so the
		// mesh's up/down split (and the row-column merge optimization)
		// disappears.
		return torusColumnGroups(m, home, sharers)
	}
	hc := m.Coord(home)

	// Partition: per-column up/down lists indexed by X, plus home-row
	// sharers.
	type colSet struct {
		up   []topology.NodeID // y > homeY, ascending
		down []topology.NodeID // y < homeY, descending
	}
	cols := make([]colSet, m.Width())
	var rowEast, rowWest []topology.NodeID // home-row sharers by side
	for _, sh := range sharers {
		c := m.Coord(sh)
		switch {
		case c.Y > hc.Y:
			cols[c.X].up = append(cols[c.X].up, sh)
		case c.Y < hc.Y:
			cols[c.X].down = append(cols[c.X].down, sh)
		case c.X > hc.X:
			rowEast = append(rowEast, sh)
		default:
			rowWest = append(rowWest, sh)
		}
	}
	// The outermost occupied column on each side of the home (-1 = none).
	maxEast, minWest := -1, -1
	for x := range cols {
		if len(cols[x].up)+len(cols[x].down) == 0 {
			continue
		}
		if x > hc.X {
			maxEast = x
		}
		if x < hc.X && minWest == -1 {
			minWest = x
		}
	}
	sortByY := func(nodes []topology.NodeID, asc bool) {
		sort.Slice(nodes, func(i, j int) bool {
			yi, yj := m.Coord(nodes[i]).Y, m.Coord(nodes[j]).Y
			if asc {
				return yi < yj
			}
			return yi > yj
		})
	}
	sortByX := func(nodes []topology.NodeID, asc bool) {
		sort.Slice(nodes, func(i, j int) bool {
			xi, xj := m.Coord(nodes[i]).X, m.Coord(nodes[j]).X
			if asc {
				return xi < xj
			}
			return xi > xj
		})
	}
	sortByX(rowEast, true)
	sortByX(rowWest, false)

	// Merged scheme: fold home-row sharers into the outermost column worm
	// on their side (its row segment passes over them). Leftovers beyond
	// the outermost column get a dedicated pure-row worm.
	var prefixEast, prefixWest []topology.NodeID // folded row members per side
	if merged {
		var leftoverEast, leftoverWest []topology.NodeID
		for _, sh := range rowEast {
			if maxEast != -1 && m.Coord(sh).X <= maxEast {
				prefixEast = append(prefixEast, sh)
			} else {
				leftoverEast = append(leftoverEast, sh)
			}
		}
		for _, sh := range rowWest {
			if minWest != -1 && m.Coord(sh).X >= minWest {
				prefixWest = append(prefixWest, sh)
			} else {
				leftoverWest = append(leftoverWest, sh)
			}
		}
		rowEast, rowWest = leftoverEast, leftoverWest
	}

	var groups []Group
	emitColumn := func(x int, members []topology.NodeID, asc bool) {
		sortByY(members, asc)
		var wp []topology.NodeID
		switch {
		case merged && x > hc.X && len(prefixEast) > 0 && x == maxEast:
			wp = append(append(wp, prefixEast...), members...)
		case merged && x < hc.X && len(prefixWest) > 0 && x == minWest:
			wp = append(append(wp, prefixWest...), members...)
		default:
			wp = members
		}
		groups = append(groups, buildGroup(routing.ECube, m, home, wp))
	}
	for x, cs := range cols {
		foldedUp := false
		if len(cs.up) > 0 {
			emitColumn(x, cs.up, true)
			foldedUp = true
		}
		if len(cs.down) > 0 {
			if foldedUp && merged {
				// Row prefix (if any) already went with the up worm; the
				// down worm carries only its column members.
				groups = append(groups, buildGroup(routing.ECube, m, home, sortedCopyByY(m, cs.down, false)))
			} else {
				emitColumn(x, cs.down, false)
			}
		}
	}
	// Remaining home-row sharers. Under plain column grouping each home-row
	// sharer is the sole occupant of its presence-bit column, so it gets a
	// dedicated worm. Under the merged scheme only sharers beyond the
	// outermost column remain here; they share one pure-row worm per side.
	if merged {
		if len(rowEast) > 0 {
			groups = append(groups, buildGroup(routing.ECube, m, home, rowEast))
		}
		if len(rowWest) > 0 {
			groups = append(groups, buildGroup(routing.ECube, m, home, rowWest))
		}
	} else {
		for _, sh := range rowEast {
			groups = append(groups, buildGroup(routing.ECube, m, home, []topology.NodeID{sh}))
		}
		for _, sh := range rowWest {
			groups = append(groups, buildGroup(routing.ECube, m, home, []topology.NodeID{sh}))
		}
	}
	return groups
}

// torusColumnGroups builds one ring worm per sharer column: along the home
// row (shortest way around) to the column, then north around the column
// ring, visiting members in ring order from the home row.
func torusColumnGroups(m *topology.Mesh, home topology.NodeID, sharers []topology.NodeID) []Group {
	hc := m.Coord(home)
	h := m.Height()
	byCol := make([][]topology.NodeID, m.Width())
	for _, sh := range sharers {
		c := m.Coord(sh)
		byCol[c.X] = append(byCol[c.X], sh)
	}
	var groups []Group
	for _, members := range byCol {
		if len(members) == 0 {
			continue
		}
		// Ring order from the home row; a member on the home row itself
		// (offset 0) is the entry point and comes first. Sweep whichever
		// direction covers the members in fewer hops, and keep the whole
		// sweep in that one direction so the worm never revisits a node.
		sort.Slice(members, func(i, j int) bool {
			oi := (m.Coord(members[i]).Y - hc.Y + h) % h
			oj := (m.Coord(members[j]).Y - hc.Y + h) % h
			return oi < oj
		})
		northSpan := (m.Coord(members[len(members)-1]).Y - hc.Y + h) % h
		southStart := 0
		for _, mem := range members {
			if o := (m.Coord(mem).Y - hc.Y + h) % h; o > 0 {
				southStart = o
				break
			}
		}
		southSpan := 0
		if southStart > 0 {
			southSpan = h - southStart
		}
		if southSpan > 0 && southSpan < northSpan {
			// Visit in descending ring offset (going south), keeping an
			// offset-0 entry member first.
			var entry, rest []topology.NodeID
			for _, mem := range members {
				if (m.Coord(mem).Y-hc.Y+h)%h == 0 {
					entry = append(entry, mem)
				} else {
					rest = append(rest, mem)
				}
			}
			for i, j := 0, len(rest)-1; i < j; i, j = i+1, j-1 {
				rest[i], rest[j] = rest[j], rest[i]
			}
			members = append(entry, rest...)
		}
		groups = append(groups, buildGroup(routing.ECube, m, home, members))
	}
	return groups
}

func sortedCopyByY(m *topology.Mesh, nodes []topology.NodeID, asc bool) []topology.NodeID {
	cp := append([]topology.NodeID(nil), nodes...)
	sort.Slice(cp, func(i, j int) bool {
		yi, yj := m.Coord(cp[i]).Y, m.Coord(cp[j]).Y
		if asc {
			return yi < yj
		}
		return yi > yj
	})
	return cp
}

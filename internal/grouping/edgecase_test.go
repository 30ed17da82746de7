package grouping

import (
	"testing"

	"repro/internal/topology"
)

// TestGroupsNoSharers pins d=0: an empty sharer set yields nil for every
// scheme (the caller grants immediately, no worms).
func TestGroupsNoSharers(t *testing.T) {
	m := topology.NewMesh(4, 4)
	home := at(m, 1, 1)
	for _, s := range AllSchemes {
		if g := Groups(s, m, home, nil); g != nil {
			t.Errorf("%v: empty sharer set produced %d groups", s, len(g))
		}
		if g := Groups(s, m, home, []topology.NodeID{}); g != nil {
			t.Errorf("%v: empty slice produced %d groups", s, len(g))
		}
	}
}

// TestGroupsSingleSharer pins d=1: every scheme degenerates to exactly one
// worm covering the lone sharer, structurally valid.
func TestGroupsSingleSharer(t *testing.T) {
	m := topology.NewMesh(4, 4)
	for _, s := range AllSchemes {
		for _, sharer := range []topology.NodeID{at(m, 0, 0), at(m, 3, 3), at(m, 1, 2)} {
			home := at(m, 1, 1)
			groups := Groups(s, m, home, []topology.NodeID{sharer})
			if len(groups) != 1 {
				t.Fatalf("%v: single sharer produced %d groups", s, len(groups))
			}
			if len(groups[0].Members) != 1 || groups[0].Members[0] != sharer {
				t.Fatalf("%v: group members %v, want [%d]", s, groups[0].Members, sharer)
			}
			checkGroups(t, s, m, home, []topology.NodeID{sharer}, groups)
		}
	}
}

// TestGroupsAllSharersOneRow places every sharer in the home's own row: a
// worm can only leave the home east or west, so the multidestination
// schemes need exactly two worms (one per side), never one per sharer.
func TestGroupsAllSharersOneRow(t *testing.T) {
	m := topology.NewMesh(6, 6)
	home := at(m, 2, 3)
	var sharers []topology.NodeID
	for x := 0; x < 6; x++ {
		if n := at(m, x, 3); n != home {
			sharers = append(sharers, n)
		}
	}
	for _, s := range AllSchemes {
		groups := Groups(s, m, home, sharers)
		checkGroups(t, s, m, home, sharers, groups)
		// Plain e-cube dedicates a worm to every home-row sharer (5) —
		// exactly the degenerate case the paper's row-column merge fixes
		// (east+west, 2); the turn model likewise needs one worm per side.
		want := map[Scheme]int{
			MIUAEC: 5, MIMAEC: 5, MIMAECRC: 2, MIUATM: 2, MIMATM: 2,
		}
		if w, ok := want[s]; ok && len(groups) != w {
			t.Errorf("%v: one-row sharers split into %d worms, want %d", s, len(groups), w)
		}
	}
}

// TestGroupsAllSharersOneColumn places every sharer in one column off the
// home's: the row/column schemes need exactly one column worm.
func TestGroupsAllSharersOneColumn(t *testing.T) {
	m := topology.NewMesh(6, 6)
	home := at(m, 2, 3)
	var sharers []topology.NodeID
	for y := 0; y < 6; y++ {
		sharers = append(sharers, at(m, 4, y))
	}
	for _, s := range AllSchemes {
		groups := Groups(s, m, home, sharers)
		checkGroups(t, s, m, home, sharers, groups)
		// E-cube worms turn at the home row and sweep one direction, so a
		// full column costs up + down + a dedicated home-row worm (3); the
		// row-column merge folds the home-row sharer into a column worm
		// (2); the turn model snakes the whole eastern region in one (1).
		want := map[Scheme]int{
			MIUAEC: 3, MIMAEC: 3, MIMAECRC: 2, MIUATM: 1, MIMATM: 1,
		}
		if w, ok := want[s]; ok && len(groups) != w {
			t.Errorf("%v: one-column sharers split into %d worms, want %d", s, len(groups), w)
		}
	}
}

// TestGroupsFullMeshMinusHome invalidates everyone: the broadcast-shaped
// worst case every scheme must cover exactly once per node.
func TestGroupsFullMeshMinusHome(t *testing.T) {
	m := topology.NewMesh(4, 4)
	home := at(m, 2, 1)
	var sharers []topology.NodeID
	for n := topology.NodeID(0); int(n) < m.Nodes(); n++ {
		if n != home {
			sharers = append(sharers, n)
		}
	}
	for _, s := range AllSchemes {
		checkGroups(t, s, m, home, sharers, Groups(s, m, home, sharers))
	}
}

// TestGroupsRejectsHomeSharer pins the contract violation: a sharer list
// containing the home must panic, for every scheme.
func TestGroupsRejectsHomeSharer(t *testing.T) {
	m := topology.NewMesh(4, 4)
	home := at(m, 1, 1)
	for _, s := range AllSchemes {
		s := s
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: home listed as sharer did not panic", s)
				}
			}()
			Groups(s, m, home, []topology.NodeID{at(m, 0, 0), home})
		}()
	}
}

// TestGroupsRejectsDuplicateSharer pins the other contract violation:
// duplicate sharers must panic.
func TestGroupsRejectsDuplicateSharer(t *testing.T) {
	m := topology.NewMesh(4, 4)
	home := at(m, 1, 1)
	dup := at(m, 3, 2)
	for _, s := range AllSchemes {
		s := s
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: duplicate sharer did not panic", s)
				}
			}()
			Groups(s, m, home, []topology.NodeID{dup, at(m, 0, 0), dup})
		}()
	}
}

// TestGroupsRectangularMesh covers non-square meshes, including the
// degenerate 1-row and 1-column shapes where planar/column decompositions
// collapse.
func TestGroupsRectangularMesh(t *testing.T) {
	for _, dim := range []struct{ w, h int }{{8, 2}, {2, 8}, {5, 1}, {1, 5}} {
		m := topology.NewMesh(dim.w, dim.h)
		home := topology.NodeID(0)
		var sharers []topology.NodeID
		for n := topology.NodeID(1); int(n) < m.Nodes(); n += 2 {
			sharers = append(sharers, n)
		}
		for _, s := range AllSchemes {
			checkGroups(t, s, m, home, sharers, Groups(s, m, home, sharers))
		}
	}
}

package grouping

import (
	"testing"

	"repro/internal/topology"
)

// TestExhaustivePairsAllSchemesAllHomes checks every scheme against every
// home and every unordered sharer pair on a 4x4 mesh (16 homes x 105 pairs
// x 9 schemes): full coverage, ordered visits and conformance.
func TestExhaustivePairsAllSchemesAllHomes(t *testing.T) {
	m := topology.NewSquareMesh(4)
	for home := topology.NodeID(0); int(home) < m.Nodes(); home++ {
		for a := topology.NodeID(0); int(a) < m.Nodes(); a++ {
			for b := a + 1; int(b) < m.Nodes(); b++ {
				if a == home || b == home {
					continue
				}
				sharers := []topology.NodeID{a, b}
				for _, s := range AllSchemes {
					groups := Groups(s, m, home, sharers)
					checkGroups(t, s, m, home, sharers, groups)
				}
			}
		}
	}
}

// TestExhaustiveTriplesColumnSchemes sweeps all sharer triples on a 4x4
// mesh for the grouping-sensitive schemes from a fixed home.
func TestExhaustiveTriplesColumnSchemes(t *testing.T) {
	m := topology.NewSquareMesh(4)
	home := m.ID(topology.Coord{X: 1, Y: 1})
	schemes := []Scheme{MIMAEC, MIMAECRC, MIMAPA, MIMATM}
	for a := topology.NodeID(0); int(a) < m.Nodes(); a++ {
		for b := a + 1; int(b) < m.Nodes(); b++ {
			for c := b + 1; int(c) < m.Nodes(); c++ {
				if a == home || b == home || c == home {
					continue
				}
				sharers := []topology.NodeID{a, b, c}
				for _, s := range schemes {
					groups := Groups(s, m, home, sharers)
					checkGroups(t, s, m, home, sharers, groups)
					if len(groups) > 3 {
						t.Fatalf("%v: %d groups for 3 sharers", s, len(groups))
					}
				}
			}
		}
	}
}

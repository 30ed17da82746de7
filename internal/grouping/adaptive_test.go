package grouping

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestAdaptPicksPlanarForDiagonal(t *testing.T) {
	m := topology.NewSquareMesh(16)
	home := at(m, 2, 2)
	var sharers []topology.NodeID
	for i := 1; i <= 6; i++ {
		sharers = append(sharers, at(m, 2+i, 2+i))
	}
	groups := Groups(ADAPT, m, home, sharers)
	checkGroups(t, ADAPT, m, home, sharers, groups)
	if len(groups) != 1 {
		t.Fatalf("adaptive diagonal groups = %d, want 1 (planar chain)", len(groups))
	}
}

func TestAdaptPicksColumnForColumn(t *testing.T) {
	m := topology.NewSquareMesh(16)
	home := at(m, 2, 8)
	var sharers []topology.NodeID
	for y := 9; y <= 14; y++ {
		sharers = append(sharers, at(m, 6, y))
	}
	groups := Groups(ADAPT, m, home, sharers)
	checkGroups(t, ADAPT, m, home, sharers, groups)
	if len(groups) != 1 {
		t.Fatalf("adaptive column groups = %d, want 1", len(groups))
	}
}

func TestAdaptNeverCostsMoreThanCandidates(t *testing.T) {
	m := topology.NewSquareMesh(16)
	rng := sim.NewRNG(17)
	for trial := 0; trial < 40; trial++ {
		home := topology.NodeID(rng.Intn(m.Nodes()))
		d := 1 + rng.Intn(24)
		var sharers []topology.NodeID
		for _, idx := range rng.Sample(m.Nodes()-1, d) {
			n := topology.NodeID(idx)
			if n >= home {
				n++
			}
			sharers = append(sharers, n)
		}
		ad := groupCost(Groups(ADAPT, m, home, sharers))
		for _, s := range adaptCandidates {
			if c := groupCost(Groups(s, m, home, sharers)); ad > c {
				t.Fatalf("trial %d: adaptive cost %d exceeds %v cost %d", trial, ad, s, c)
			}
		}
	}
}

func TestAdaptParseRoundTrip(t *testing.T) {
	got, err := Parse(ADAPT.String())
	if err != nil || got != ADAPT {
		t.Fatalf("Parse(ADAPT) = %v, %v", got, err)
	}
	if ADAPT.String() != "ADAPT" {
		t.Fatalf("ADAPT name = %q", ADAPT.String())
	}
	for _, s := range AllSchemes {
		if s == ADAPT {
			t.Fatal("ADAPT must not be in AllSchemes (extension, not a paper scheme)")
		}
	}
}

// groupCost scores a finished grouping with ADAPT's cost model.
func groupCost(groups []Group) int {
	maxPath := 0
	for _, g := range groups {
		if l := len(g.Path) - 1; l > maxPath {
			maxPath = l
		}
	}
	return 2*maxPath*costPerHop + len(groups)*costPerWorm
}

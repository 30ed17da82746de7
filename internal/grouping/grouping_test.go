package grouping

import (
	"encoding/json"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func at(m *topology.Mesh, x, y int) topology.NodeID {
	return m.ID(topology.Coord{X: x, Y: y})
}

// checkGroups verifies the structural invariants every scheme must satisfy:
// exact coverage, home-rooted hop-contiguous paths visiting members in
// order, and (except BR) base-routing conformance.
func checkGroups(t *testing.T, s Scheme, m *topology.Mesh, home topology.NodeID,
	sharers []topology.NodeID, groups []Group) {
	t.Helper()
	seen := map[topology.NodeID]int{}
	for gi, g := range groups {
		if len(g.Members) == 0 {
			t.Fatalf("%v: group %d empty", s, gi)
		}
		if g.Path[0] != home {
			t.Fatalf("%v: group %d path does not start at home", s, gi)
		}
		if g.Path[len(g.Path)-1] != g.Last() {
			t.Fatalf("%v: group %d path does not end at last member", s, gi)
		}
		for i := 1; i < len(g.Path); i++ {
			if m.Distance(g.Path[i-1], g.Path[i]) != 1 {
				t.Fatalf("%v: group %d path not hop-contiguous", s, gi)
			}
		}
		// Members appear on the path in visit order.
		mi := 0
		for _, n := range g.Path[1:] {
			if mi < len(g.Members) && n == g.Members[mi] {
				mi++
			}
		}
		if mi != len(g.Members) {
			t.Fatalf("%v: group %d visits %d of %d members in order", s, gi, mi, len(g.Members))
		}
		for _, mem := range g.Members {
			seen[mem]++
		}
		if g.Conformed {
			if !g.Base.Conforms(routing.Moves(m, g.Path)) {
				t.Fatalf("%v: group %d path not %v-conformed: %v", s, gi, g.Base, coords(m, g.Path))
			}
		} else if s != BR {
			t.Fatalf("%v: group %d unexpectedly non-conformed", s, gi)
		}
	}
	for _, sh := range sharers {
		if seen[sh] != 1 {
			t.Fatalf("%v: sharer %v covered %d times", s, m.Coord(sh), seen[sh])
		}
	}
	if len(seen) != len(sharers) {
		t.Fatalf("%v: covered %d nodes, want %d", s, len(seen), len(sharers))
	}
}

func coords(m *topology.Mesh, path []topology.NodeID) []topology.Coord {
	out := make([]topology.Coord, len(path))
	for i, n := range path {
		out[i] = m.Coord(n)
	}
	return out
}

func TestUIUAOneGroupPerSharer(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 3, 3)
	sharers := []topology.NodeID{at(m, 0, 0), at(m, 7, 7), at(m, 3, 5), at(m, 1, 3)}
	groups := Groups(UIUA, m, home, sharers)
	if len(groups) != len(sharers) {
		t.Fatalf("groups = %d, want %d", len(groups), len(sharers))
	}
	checkGroups(t, UIUA, m, home, sharers, groups)
}

func TestColumnGroupingSplitsAboveAndBelow(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 1, 3)
	// Column 5 has sharers above and below the home row: two worms.
	sharers := []topology.NodeID{at(m, 5, 1), at(m, 5, 5), at(m, 5, 6)}
	groups := Groups(MIMAEC, m, home, sharers)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (up and down)", len(groups))
	}
	checkGroups(t, MIMAEC, m, home, sharers, groups)
	// The up worm visits ascending, the down worm descending.
	for _, g := range groups {
		ys := make([]int, len(g.Members))
		for i, mem := range g.Members {
			ys[i] = m.Coord(mem).Y
		}
		for i := 1; i < len(ys); i++ {
			if (ys[0] > 3) != (ys[i] > ys[i-1]) && len(ys) > 1 {
				t.Fatalf("column sweep not monotone: %v", ys)
			}
		}
	}
}

func TestColumnGroupingHomeRowSharersOwnWorms(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 1, 3)
	sharers := []topology.NodeID{at(m, 3, 3), at(m, 6, 3), at(m, 6, 5)}
	plain := Groups(MIMAEC, m, home, sharers)
	// Plain: (3,3) own worm, (6,3) own worm, (6,5) column worm = 3 groups.
	if len(plain) != 3 {
		t.Fatalf("plain column groups = %d, want 3", len(plain))
	}
	checkGroups(t, MIMAEC, m, home, sharers, plain)

	merged := Groups(MIMAECRC, m, home, sharers)
	// Merged: row sharers fold into the column-6 worm = 1 group.
	if len(merged) != 1 {
		t.Fatalf("merged groups = %d, want 1", len(merged))
	}
	checkGroups(t, MIMAECRC, m, home, sharers, merged)
}

func TestMergedLeftoverRowSharersBeyondOutermostColumn(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 1, 3)
	// Row sharer at x=7 beyond outermost column 4: leftover row worm.
	sharers := []topology.NodeID{at(m, 4, 6), at(m, 3, 3), at(m, 7, 3)}
	groups := Groups(MIMAECRC, m, home, sharers)
	checkGroups(t, MIMAECRC, m, home, sharers, groups)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (column worm with folded (3,3) + leftover row worm)", len(groups))
	}
}

func TestMergedWestSide(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 6, 3)
	sharers := []topology.NodeID{at(m, 2, 3), at(m, 1, 1), at(m, 4, 3)}
	groups := Groups(MIMAECRC, m, home, sharers)
	checkGroups(t, MIMAECRC, m, home, sharers, groups)
	// Column 1 worm (down) folds row sharers at x=2 and x=4: 1 group.
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
}

func TestSnakeSingleWormEastSide(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 1, 4)
	sharers := []topology.NodeID{at(m, 3, 1), at(m, 3, 6), at(m, 5, 2), at(m, 6, 7), at(m, 2, 4)}
	groups := Groups(MIMATM, m, home, sharers)
	checkGroups(t, MIMATM, m, home, sharers, groups)
	if len(groups) != 1 {
		t.Fatalf("eastern snake groups = %d, want 1", len(groups))
	}
}

func TestSnakeWestWorm(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 6, 3)
	sharers := []topology.NodeID{at(m, 1, 3), at(m, 2, 6), at(m, 4, 1), at(m, 3, 3)}
	groups := Groups(MIMATM, m, home, sharers)
	checkGroups(t, MIMATM, m, home, sharers, groups)
	if len(groups) != 1 {
		t.Fatalf("western snake groups = %d, want 1", len(groups))
	}
}

func TestSnakeHomeColumnBothSidesSplits(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 2, 4)
	// Home column sharers above and below: one side spills to a second worm.
	sharers := []topology.NodeID{at(m, 2, 1), at(m, 2, 7), at(m, 5, 5)}
	groups := Groups(MIMATM, m, home, sharers)
	checkGroups(t, MIMATM, m, home, sharers, groups)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
}

func TestSnakeGroupCountBounded(t *testing.T) {
	// The defining property: group count stays bounded regardless of d.
	m := topology.NewSquareMesh(16)
	rng := sim.NewRNG(99)
	home := at(m, 7, 8)
	for trial := 0; trial < 50; trial++ {
		d := 4 + rng.Intn(40)
		var sharers []topology.NodeID
		for _, idx := range rng.Sample(m.Nodes()-1, d) {
			n := topology.NodeID(idx)
			if n >= home {
				n++
			}
			sharers = append(sharers, n)
		}
		groups := Groups(MIMATM, m, home, sharers)
		checkGroups(t, MIMATM, m, home, sharers, groups)
		if len(groups) > 4 {
			t.Fatalf("trial %d: snake produced %d groups for d=%d, want <= 4", trial, len(groups), d)
		}
	}
}

func TestBRTwoWormsAlongSnake(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 3, 3)
	sharers := []topology.NodeID{at(m, 0, 0), at(m, 7, 7), at(m, 5, 3), at(m, 2, 3)}
	groups := Groups(BR, m, home, sharers)
	checkGroups(t, BR, m, home, sharers, groups)
	if len(groups) != 2 {
		t.Fatalf("BR groups = %d, want 2 (forward + backward)", len(groups))
	}
}

func TestBRForwardOnly(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 0, 0)
	sharers := []topology.NodeID{at(m, 5, 0), at(m, 3, 1)}
	groups := Groups(BR, m, home, sharers)
	checkGroups(t, BR, m, home, sharers, groups)
	if len(groups) != 1 {
		t.Fatalf("BR groups = %d, want 1", len(groups))
	}
}

func TestAllSchemesCoverageProperty(t *testing.T) {
	// Property: every scheme covers every sharer exactly once with valid,
	// conformed paths, for random homes and sharer sets on a 16x16 mesh.
	m := topology.NewSquareMesh(16)
	rng := sim.NewRNG(2024)
	for trial := 0; trial < 60; trial++ {
		home := topology.NodeID(rng.Intn(m.Nodes()))
		d := 1 + rng.Intn(32)
		var sharers []topology.NodeID
		for _, idx := range rng.Sample(m.Nodes()-1, d) {
			n := topology.NodeID(idx)
			if n >= home {
				n++
			}
			sharers = append(sharers, n)
		}
		for _, s := range AllSchemes {
			groups := Groups(s, m, home, sharers)
			checkGroups(t, s, m, home, sharers, groups)
		}
	}
}

func TestGroupCountOrdering(t *testing.T) {
	// MIMAECRC never needs more worms than MIMAEC; TM never more than 4.
	m := topology.NewSquareMesh(16)
	rng := sim.NewRNG(7)
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
		ec := len(Groups(MIMAEC, m, home, sharers))
		ecrc := len(Groups(MIMAECRC, m, home, sharers))
		tm := len(Groups(MIMATM, m, home, sharers))
		ui := len(Groups(UIUA, m, home, sharers))
		if ecrc > ec {
			t.Fatalf("trial %d: ecrc %d > ec %d", trial, ecrc, ec)
		}
		if ec > ui {
			t.Fatalf("trial %d: ec %d > uiua %d", trial, ec, ui)
		}
		if tm > 4 {
			t.Fatalf("trial %d: tm %d > 4", trial, tm)
		}
	}
}

func TestGroupsDeterministic(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 4, 4)
	sharers := []topology.NodeID{at(m, 1, 1), at(m, 6, 2), at(m, 2, 6), at(m, 6, 6)}
	for _, s := range AllSchemes {
		a := Groups(s, m, home, sharers)
		b := Groups(s, m, home, sharers)
		if len(a) != len(b) {
			t.Fatalf("%v: nondeterministic group count", s)
		}
		for i := range a {
			if len(a[i].Path) != len(b[i].Path) {
				t.Fatalf("%v: nondeterministic path", s)
			}
			for j := range a[i].Path {
				if a[i].Path[j] != b[i].Path[j] {
					t.Fatalf("%v: nondeterministic path node", s)
				}
			}
		}
	}
}

func TestGroupsEmptySharers(t *testing.T) {
	m := topology.NewSquareMesh(4)
	if got := Groups(MIMAEC, m, at(m, 0, 0), nil); got != nil {
		t.Fatalf("Groups(empty) = %v, want nil", got)
	}
}

func TestGroupsHomeAsSharerPanics(t *testing.T) {
	m := topology.NewSquareMesh(4)
	defer func() {
		if recover() == nil {
			t.Error("home as sharer did not panic")
		}
	}()
	Groups(MIMAEC, m, at(m, 0, 0), []topology.NodeID{at(m, 0, 0)})
}

func TestGroupsDuplicateSharerPanics(t *testing.T) {
	m := topology.NewSquareMesh(4)
	defer func() {
		if recover() == nil {
			t.Error("duplicate sharer did not panic")
		}
	}()
	Groups(MIMAEC, m, at(m, 0, 0), []topology.NodeID{at(m, 1, 1), at(m, 1, 1)})
}

func TestReversePath(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 0, 2)
	groups := Groups(MIMAEC, m, home, []topology.NodeID{at(m, 3, 4), at(m, 3, 6)})
	if len(groups) != 1 {
		t.Fatalf("groups = %d", len(groups))
	}
	rev := groups[0].ReversePath()
	if rev[0] != groups[0].Last() || rev[len(rev)-1] != home {
		t.Fatal("ReversePath endpoints wrong")
	}
	// The reverse path must conform to the reverse base routing: check by
	// reversing it back and testing forward conformance.
	if !routing.ECube.Conforms(routing.Moves(m, groups[0].Path)) {
		t.Fatal("forward path broken")
	}
}

func TestSchemeParseRoundTrip(t *testing.T) {
	for _, s := range AllSchemes {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Fatalf("Parse(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := Parse("nonsense"); err == nil {
		t.Fatal("Parse accepted nonsense")
	}
}

// TestSchemeJSONAcceptsNames: a scheme decodes from its name or its
// integer, encodes as the integer, and an unknown name fails with Parse's
// error.
func TestSchemeJSONAcceptsNames(t *testing.T) {
	for _, s := range AllSchemes {
		enc, err := json.Marshal(s)
		if err != nil || string(enc) != strconv.Itoa(int(s)) {
			t.Fatalf("Marshal(%v) = %s, %v; want the integer", s, enc, err)
		}
		for _, in := range []string{strconv.Quote(s.String()), string(enc)} {
			var got Scheme
			if err := json.Unmarshal([]byte(in), &got); err != nil || got != s {
				t.Fatalf("Unmarshal(%s) = %v, %v; want %v", in, got, err, s)
			}
		}
	}
	_, want := Parse("MI-MA-ecc")
	var got Scheme
	if err := json.Unmarshal([]byte(`"MI-MA-ecc"`), &got); err == nil || err.Error() != want.Error() {
		t.Fatalf("Unmarshal of an unknown name: %v, want %v", err, want)
	}
}

func TestSchemePredicates(t *testing.T) {
	if UIUA.MultidestRequest() {
		t.Error("UIUA should be unicast")
	}
	if !MIUAEC.MultidestRequest() || MIUAEC.GatherAck() {
		t.Error("MIUAEC predicates wrong")
	}
	if !MIMATM.GatherAck() || MIMATM.Base() != routing.WestFirst {
		t.Error("MIMATM predicates wrong")
	}
	if BR.GatherAck() {
		t.Error("BR should use unicast acks")
	}
}

func TestQuickColumnGroupsAlwaysConform(t *testing.T) {
	m := topology.NewSquareMesh(8)
	prop := func(homeIdx uint8, raw []uint8) bool {
		home := topology.NodeID(int(homeIdx) % m.Nodes())
		seen := map[topology.NodeID]bool{home: true}
		var sharers []topology.NodeID
		for _, r := range raw {
			n := topology.NodeID(int(r) % m.Nodes())
			if !seen[n] {
				seen[n] = true
				sharers = append(sharers, n)
			}
		}
		if len(sharers) == 0 {
			return true
		}
		for _, s := range []Scheme{MIMAEC, MIMAECRC, MIMATM} {
			for _, g := range Groups(s, m, home, sharers) {
				if !s.Base().Conforms(routing.Moves(m, g.Path)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanarDiagonalOneWorm(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 1, 1)
	sharers := []topology.NodeID{at(m, 2, 2), at(m, 4, 4), at(m, 6, 6), at(m, 3, 3)}
	groups := Groups(MIMAPA, m, home, sharers)
	checkGroups(t, MIMAPA, m, home, sharers, groups)
	if len(groups) != 1 {
		t.Fatalf("diagonal groups = %d, want 1", len(groups))
	}
	// e-cube needs one worm per diagonal sharer.
	if ec := Groups(MIMAEC, m, home, sharers); len(ec) != 4 {
		t.Fatalf("ecube diagonal groups = %d, want 4", len(ec))
	}
}

func TestPlanarAntidiagonalNeedsChainPerSharer(t *testing.T) {
	// An antichain (x increasing, y decreasing within one quadrant) defeats
	// chain grouping: one worm per sharer.
	m := topology.NewSquareMesh(8)
	home := at(m, 0, 0)
	sharers := []topology.NodeID{at(m, 1, 6), at(m, 3, 4), at(m, 5, 2)}
	groups := Groups(MIMAPA, m, home, sharers)
	checkGroups(t, MIMAPA, m, home, sharers, groups)
	if len(groups) != 3 {
		t.Fatalf("antichain groups = %d, want 3", len(groups))
	}
}

func TestPlanarQuadrantsSeparate(t *testing.T) {
	m := topology.NewSquareMesh(8)
	home := at(m, 4, 4)
	sharers := []topology.NodeID{
		at(m, 6, 6), at(m, 2, 6), at(m, 6, 2), at(m, 2, 2),
	}
	groups := Groups(MIMAPA, m, home, sharers)
	checkGroups(t, MIMAPA, m, home, sharers, groups)
	if len(groups) != 4 {
		t.Fatalf("one sharer per quadrant should give 4 worms, got %d", len(groups))
	}
}

func TestPlanarNeverWorseThanColumnGrouping(t *testing.T) {
	// Column groups are valid chains, so the optimal chain cover can't
	// need more worms.
	m := topology.NewSquareMesh(16)
	rng := sim.NewRNG(31)
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
		pa := Groups(MIMAPA, m, home, sharers)
		ec := Groups(MIMAEC, m, home, sharers)
		checkGroups(t, MIMAPA, m, home, sharers, pa)
		if len(pa) > len(ec) {
			t.Fatalf("trial %d: planar %d worms > ecube %d", trial, len(pa), len(ec))
		}
	}
}

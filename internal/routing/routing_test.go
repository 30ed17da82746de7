package routing

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func mesh8() *topology.Mesh { return topology.NewSquareMesh(8) }

func at(m *topology.Mesh, x, y int) topology.NodeID {
	return m.ID(topology.Coord{X: x, Y: y})
}

// routerWalk is the hop-by-hop route a base router takes: at each node it
// picks the output port toward dst and steps to that neighbor. It is the
// oracle UnicastPathInto's per-dimension arithmetic must reproduce.
func routerWalk(b Base, m *topology.Mesh, src, dst topology.NodeID) []topology.NodeID {
	path := []topology.NodeID{src}
	for cur := src; cur != dst; {
		next, ok := m.Neighbor(cur, walkPort(b, m, cur, dst))
		if !ok {
			panic(fmt.Sprintf("routing: %v fell off mesh at %v toward %v", b, m.Coord(cur), m.Coord(dst)))
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// walkPort is the port a base router at cur forwards to on the way to dst:
// X before Y, the sign of the offset for west-first's X, and the shorter
// way round a torus ring (forward on a tie) otherwise.
func walkPort(b Base, m *topology.Mesh, cur, dst topology.NodeID) topology.Port {
	cc, cd := m.Coord(cur), m.Coord(dst)
	switch {
	case cc.X != cd.X && b == WestFirst:
		if cd.X < cc.X {
			return topology.West
		}
		return topology.East
	case cc.X != cd.X:
		return ringPort(cc.X, cd.X, m.Width(), m.Wrap(), topology.East, topology.West)
	case cc.Y != cd.Y:
		return ringPort(cc.Y, cd.Y, m.Height(), m.Wrap(), topology.North, topology.South)
	}
	return topology.Local
}

func ringPort(from, to, size int, wrap bool, fwd, bwd topology.Port) topology.Port {
	if wrap {
		if f := (to - from + size) % size; f <= size-f {
			return fwd
		}
		return bwd
	}
	if to > from {
		return fwd
	}
	return bwd
}

// TestUnicastPathIsRouterWalk checks, for every base and every (src, dst)
// pair on meshes and tori of assorted shapes, that the per-dimension route
// is byte-identical to the hop-by-hop router walk, appended after a reused
// buffer's contents.
func TestUnicastPathIsRouterWalk(t *testing.T) {
	meshes := []*topology.Mesh{
		topology.NewMesh(1, 1), topology.NewMesh(1, 5), topology.NewMesh(5, 1),
		topology.NewMesh(3, 5), topology.NewMesh(4, 4), topology.NewMesh(8, 8),
		topology.NewTorus(3, 3), topology.NewTorus(3, 5), topology.NewTorus(6, 6),
	}
	for _, m := range meshes {
		for _, b := range []Base{ECube, WestFirst, PlanarAdaptive} {
			name := fmt.Sprintf("%v/%dx%d", b, m.Width(), m.Height())
			if m.Wrap() {
				name += "-torus"
			}
			t.Run(name, func(t *testing.T) {
				buf := []topology.NodeID{-7}
				for src := topology.NodeID(0); int(src) < m.Nodes(); src++ {
					for dst := topology.NodeID(0); int(dst) < m.Nodes(); dst++ {
						want := routerWalk(b, m, src, dst)
						buf = b.UnicastPathInto(buf[:1], m, src, dst)
						if buf[0] != -7 || !slices.Equal(buf[1:], want) {
							t.Fatalf("%v -> %v: UnicastPathInto = %v, router walk = %v",
								m.Coord(src), m.Coord(dst), buf[1:], want)
						}
					}
				}
			})
		}
	}
}

func TestUnicastPathOffMeshPanics(t *testing.T) {
	m := topology.NewSquareMesh(4)
	for _, dst := range []topology.NodeID{16, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UnicastPath to off-mesh node %d did not panic", dst)
				}
			}()
			ECube.UnicastPath(m, 0, dst)
		}()
	}
}

// movesOf is the hop-direction sequence of base b's route from src to dst.
func movesOf(b Base, m *topology.Mesh, src, dst topology.NodeID) []topology.Port {
	return Moves(m, b.UnicastPath(m, src, dst))
}

func TestECubeUnicastPathOrdersXFirst(t *testing.T) {
	m := mesh8()
	E, N := topology.East, topology.North
	if got := movesOf(ECube, m, at(m, 1, 1), at(m, 4, 5)); !slices.Equal(got, []topology.Port{E, E, E, N, N, N, N}) {
		t.Fatalf("moves = %v, want X first then Y", got)
	}
	if got := ECube.UnicastPath(m, at(m, 4, 5), at(m, 4, 5)); len(got) != 1 {
		t.Fatalf("path to self = %v, want the node alone", got)
	}
}

func TestUnicastPathMeshDirections(t *testing.T) {
	m := mesh8()
	a, b := at(m, 2, 2), at(m, 5, 6)
	E, W, N, S := topology.East, topology.West, topology.North, topology.South
	if got := movesOf(ECube, m, a, b); !slices.Equal(got, []topology.Port{E, E, E, N, N, N, N}) {
		t.Errorf("moves = %v, want east then north", got)
	}
	if got := movesOf(ECube, m, b, a); !slices.Equal(got, []topology.Port{W, W, W, S, S, S, S}) {
		t.Errorf("reverse moves = %v, want west then south", got)
	}
}

func TestTorusUnicastPathTakesShorterWay(t *testing.T) {
	m := topology.NewTorus(8, 8)
	a, b := at(m, 1, 0), at(m, 7, 0)
	E, W, N := topology.East, topology.West, topology.North
	if got := movesOf(ECube, m, a, b); !slices.Equal(got, []topology.Port{W, W}) {
		t.Fatalf("moves = %v, want west west (wrap is shorter)", got)
	}
	if got := movesOf(ECube, m, b, a); !slices.Equal(got, []topology.Port{E, E}) {
		t.Fatalf("moves = %v, want east east (wrap back)", got)
	}
	if got := movesOf(ECube, m, at(m, 0, 0), at(m, 4, 4)); !slices.Equal(got, []topology.Port{E, E, E, E, N, N, N, N}) {
		t.Fatalf("half-ring moves = %v, want forward on the tie", got)
	}
	// West-first's X run never wraps: a westward offset is walked west.
	if got := movesOf(WestFirst, m, b, a); !slices.Equal(got, []topology.Port{W, W, W, W, W, W}) {
		t.Fatalf("west-first moves = %v, want six west hops", got)
	}
}

func TestECubeUnicastPathShape(t *testing.T) {
	m := mesh8()
	path := ECube.UnicastPath(m, at(m, 1, 1), at(m, 4, 3))
	if PathLength(path) != 5 {
		t.Fatalf("path length = %d, want 5 (minimal)", PathLength(path))
	}
	moves := Moves(m, path)
	// XY: all X moves then all Y moves.
	want := []topology.Port{topology.East, topology.East, topology.East, topology.North, topology.North}
	for i := range want {
		if moves[i] != want[i] {
			t.Fatalf("moves = %v, want %v", moves, want)
		}
	}
}

func TestWestFirstUnicastGoesWestFirst(t *testing.T) {
	m := mesh8()
	path := WestFirst.UnicastPath(m, at(m, 5, 2), at(m, 2, 6))
	moves := Moves(m, path)
	if moves[0] != topology.West || moves[1] != topology.West || moves[2] != topology.West {
		t.Fatalf("west-first did not go west first: %v", moves)
	}
	if !WestFirst.Conforms(moves) {
		t.Fatalf("west-first unicast path does not conform: %v", moves)
	}
}

func TestUnicastPathsMinimalProperty(t *testing.T) {
	m := topology.NewSquareMesh(16)
	prop := func(a, b uint8) bool {
		src := topology.NodeID(int(a) % m.Nodes())
		dst := topology.NodeID(int(b) % m.Nodes())
		for _, base := range []Base{ECube, WestFirst} {
			p := base.UnicastPath(m, src, dst)
			if PathLength(p) != m.Distance(src, dst) {
				return false
			}
			if p[0] != src || p[len(p)-1] != dst {
				return false
			}
			if !base.Conforms(Moves(m, p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConformsECube(t *testing.T) {
	E, W, N, S := topology.East, topology.West, topology.North, topology.South
	cases := []struct {
		moves []topology.Port
		want  bool
	}{
		{nil, true},
		{[]topology.Port{E, E, E}, true},
		{[]topology.Port{N, N}, true},
		{[]topology.Port{E, E, N, N}, true},
		{[]topology.Port{W, S, S}, true},
		{[]topology.Port{N, E}, false},    // Y before X
		{[]topology.Port{E, W}, false},    // X reversal
		{[]topology.Port{E, N, S}, false}, // Y reversal
		{[]topology.Port{E, N, E}, false}, // X after Y
		{[]topology.Port{E, E, N, N, E}, false},
	}
	for _, tc := range cases {
		if got := ECube.Conforms(tc.moves); got != tc.want {
			t.Errorf("ECube.Conforms(%v) = %v, want %v", tc.moves, got, tc.want)
		}
	}
}

func TestConformsWestFirst(t *testing.T) {
	E, W, N, S := topology.East, topology.West, topology.North, topology.South
	cases := []struct {
		moves []topology.Port
		want  bool
	}{
		{nil, true},
		{[]topology.Port{W, W, N, E, S, E}, true}, // west first then snake
		{[]topology.Port{N, E, S, E, N}, true},    // staircase east
		{[]topology.Port{E, W}, false},            // west after east
		{[]topology.Port{W, E}, false},            // 180 reversal off the west phase
		{[]topology.Port{W, W, E, N}, false},      // ditto, mid-path
		{[]topology.Port{N, W}, false},            // west after north
		{[]topology.Port{N, S}, false},            // 180 reversal
		{[]topology.Port{S, N}, false},            // 180 reversal
		{[]topology.Port{N, E, S}, true},          // reversal split by east is fine
		{[]topology.Port{W, N, E, S, E}, true},
	}
	for _, tc := range cases {
		if got := WestFirst.Conforms(tc.moves); got != tc.want {
			t.Errorf("WestFirst.Conforms(%v) = %v, want %v", tc.moves, got, tc.want)
		}
	}
}

func TestPathThroughColumnGroupECube(t *testing.T) {
	// Home at (2,3); worm covers column 5 sharers at y = 1, 5 entered at
	// row 3: must fail (needs both up and down in the same column).
	m := mesh8()
	home := at(m, 2, 3)
	_, err := ECube.PathThrough(m, []topology.NodeID{home, at(m, 5, 5), at(m, 5, 1)})
	if err == nil {
		t.Fatal("e-cube path covering both column directions should fail")
	}
	// Upward-only column group is fine.
	path, err := ECube.PathThrough(m, []topology.NodeID{home, at(m, 5, 4), at(m, 5, 6)})
	if err != nil {
		t.Fatalf("column-up group failed: %v", err)
	}
	if !ECube.Conforms(Moves(m, path)) {
		t.Fatal("returned path not conformed")
	}
	if PathLength(path) != 3+3 {
		t.Fatalf("path length = %d, want 6", PathLength(path))
	}
}

func TestPathThroughHomeRowThenColumnECube(t *testing.T) {
	// Row-column merged group: home row sharers on the way to a column.
	m := mesh8()
	home := at(m, 1, 2)
	wp := []topology.NodeID{home, at(m, 3, 2), at(m, 6, 2), at(m, 6, 5)}
	path, err := ECube.PathThrough(m, wp)
	if err != nil {
		t.Fatalf("row-column group failed: %v", err)
	}
	if PathLength(path) != 5+3 {
		t.Fatalf("path length = %d, want 8", PathLength(path))
	}
}

func TestPathThroughSnakeWestFirst(t *testing.T) {
	// Eastern snake: home (1,4); sharers (3,1), (3,6), (5,2) — one worm
	// under west-first, impossible under e-cube.
	m := mesh8()
	home := at(m, 1, 4)
	wp := []topology.NodeID{home, at(m, 3, 1), at(m, 3, 6), at(m, 5, 2)}
	if _, err := ECube.PathThrough(m, wp); err == nil {
		t.Fatal("snake should not conform to e-cube")
	}
	path, err := WestFirst.PathThrough(m, wp)
	if err != nil {
		t.Fatalf("west-first snake failed: %v", err)
	}
	if !WestFirst.Conforms(Moves(m, path)) {
		t.Fatal("snake path not west-first conformed")
	}
	// Must visit every waypoint in order.
	idx := 0
	for _, n := range path {
		if idx < len(wp) && n == wp[idx] {
			idx++
		}
	}
	if idx != len(wp) {
		t.Fatalf("path does not visit all waypoints in order: visited %d of %d", idx, len(wp))
	}
}

func TestPathThroughWestThenSnake(t *testing.T) {
	// Western worm: go west first to the westernmost column, then snake
	// east over western sharers.
	m := mesh8()
	home := at(m, 6, 3)
	wp := []topology.NodeID{home, at(m, 1, 3), at(m, 2, 6), at(m, 4, 1)}
	path, err := WestFirst.PathThrough(m, wp)
	if err != nil {
		t.Fatalf("west-then-snake failed: %v", err)
	}
	moves := Moves(m, path)
	if !WestFirst.Conforms(moves) {
		t.Fatalf("path not conformed: %v", moves)
	}
}

func TestPathThroughSingleWaypoint(t *testing.T) {
	m := mesh8()
	path, err := ECube.PathThrough(m, []topology.NodeID{at(m, 3, 3)})
	if err != nil || len(path) != 1 {
		t.Fatalf("single waypoint path = %v, %v", path, err)
	}
}

func TestPathThroughEmptyErrors(t *testing.T) {
	if _, err := ECube.PathThrough(mesh8(), nil); err == nil {
		t.Fatal("empty waypoints should error")
	}
}

func TestMovesAdjacent(t *testing.T) {
	m := mesh8()
	if Moves(m, []topology.NodeID{at(m, 0, 0)}) != nil {
		t.Fatal("Moves of single node should be nil")
	}
}

func TestMovesNonAdjacentPanics(t *testing.T) {
	m := mesh8()
	defer func() {
		if recover() == nil {
			t.Error("Moves on non-adjacent nodes did not panic")
		}
	}()
	Moves(m, []topology.NodeID{at(m, 0, 0), at(m, 2, 0)})
}

func TestBaseString(t *testing.T) {
	if ECube.String() != "ecube" || WestFirst.String() != "west-first" {
		t.Error("Base names wrong")
	}
}

func TestPathThroughConformancePropertyECubeColumns(t *testing.T) {
	// Property: for any home and any column group on one side of the home
	// row, the e-cube column worm path exists and is conformed.
	m := topology.NewSquareMesh(8)
	prop := func(hx, hy, c uint8, ys [3]uint8) bool {
		home := at(m, int(hx)%8, int(hy)%8)
		col := int(c) % 8
		hyv := int(hy) % 8
		// Build ascending-y waypoints strictly above home row.
		if hyv >= 6 {
			return true // no room above; vacuous
		}
		seen := map[int]bool{}
		var wps []topology.NodeID
		for _, y := range ys {
			yy := hyv + 1 + int(y)%(7-hyv)
			if !seen[yy] {
				seen[yy] = true
				wps = append(wps, at(m, col, yy))
			}
		}
		if len(wps) == 0 {
			return true
		}
		// sort ascending
		for i := 0; i < len(wps); i++ {
			for j := i + 1; j < len(wps); j++ {
				if m.Coord(wps[j]).Y < m.Coord(wps[i]).Y {
					wps[i], wps[j] = wps[j], wps[i]
				}
			}
		}
		if col == m.Coord(home).X && m.Coord(home).Y == m.Coord(wps[0]).Y {
			return true
		}
		path, err := ECube.PathThrough(m, append([]topology.NodeID{home}, wps...))
		return err == nil && ECube.Conforms(Moves(m, path))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConformsPlanarAdaptive(t *testing.T) {
	E, W, N, S := topology.East, topology.West, topology.North, topology.South
	cases := []struct {
		moves []topology.Port
		want  bool
	}{
		{nil, true},
		{[]topology.Port{E, N, E, N, E}, true}, // staircase
		{[]topology.Port{N, E, N, E}, true},    // staircase, Y first
		{[]topology.Port{W, S, W, S}, true},    // opposite diagonal
		{[]topology.Port{E, W}, false},         // X reversal
		{[]topology.Port{N, E, S}, false},      // Y reversal
		{[]topology.Port{E, E, N, N}, true},    // ecube paths conform too
		{[]topology.Port{W, N, W, N}, true},
	}
	for _, tc := range cases {
		if got := PlanarAdaptive.Conforms(tc.moves); got != tc.want {
			t.Errorf("PlanarAdaptive.Conforms(%v) = %v, want %v", tc.moves, got, tc.want)
		}
	}
}

func TestPlanarAdaptiveDiagonalWorm(t *testing.T) {
	// The paper: "a multidestination worm can cover a set of destinations
	// along any diagonal" under planar-adaptive routing.
	m := mesh8()
	home := at(m, 1, 1)
	diag := []topology.NodeID{home, at(m, 2, 2), at(m, 4, 4), at(m, 6, 6)}
	if _, err := ECube.PathThrough(m, diag); err == nil {
		t.Fatal("diagonal should not conform to e-cube")
	}
	path, err := PlanarAdaptive.PathThrough(m, diag)
	if err != nil {
		t.Fatalf("planar-adaptive diagonal failed: %v", err)
	}
	if PathLength(path) != 10 {
		t.Fatalf("diagonal path length = %d, want 10 (minimal)", PathLength(path))
	}
	if !PlanarAdaptive.Conforms(Moves(m, path)) {
		t.Fatal("diagonal path not conformed")
	}
}

func TestPlanarAdaptiveUnicastMinimal(t *testing.T) {
	m := topology.NewSquareMesh(16)
	prop := func(a, b uint8) bool {
		src := topology.NodeID(int(a) % m.Nodes())
		dst := topology.NodeID(int(b) % m.Nodes())
		p := PlanarAdaptive.UnicastPath(m, src, dst)
		return PathLength(p) == m.Distance(src, dst) &&
			PlanarAdaptive.Conforms(Moves(m, p))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanarAdaptiveSupersetOfECube(t *testing.T) {
	// Every e-cube-conformed move sequence conforms to planar-adaptive.
	m := topology.NewSquareMesh(8)
	rng := 0
	for trial := 0; trial < 50; trial++ {
		src := topology.NodeID((trial * 13) % m.Nodes())
		dst := topology.NodeID((trial*29 + 7) % m.Nodes())
		p := ECube.UnicastPath(m, src, dst)
		if !PlanarAdaptive.Conforms(Moves(m, p)) {
			t.Fatalf("ecube path %d not PA-conformed", trial)
		}
		rng++
	}
}

func TestTorusUnicastMinimalProperty(t *testing.T) {
	m := topology.NewTorus(8, 8)
	prop := func(a, b uint8) bool {
		src := topology.NodeID(int(a) % m.Nodes())
		dst := topology.NodeID(int(b) % m.Nodes())
		p := ECube.UnicastPath(m, src, dst)
		return PathLength(p) == m.Distance(src, dst) && ECube.Conforms(Moves(m, p))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusPathThroughRingColumn(t *testing.T) {
	// A worm sweeping a whole column ring: home (1,4), members in column 5
	// at y = 5, 7, 0, 2 (ring order going north from row 4).
	m := topology.NewTorus(8, 8)
	home := at(m, 1, 4)
	wp := []topology.NodeID{home, at(m, 5, 5), at(m, 5, 7), at(m, 5, 0), at(m, 5, 2)}
	path, err := ECube.PathThrough(m, wp)
	if err != nil {
		t.Fatalf("ring column worm failed: %v", err)
	}
	if !ECube.Conforms(Moves(m, path)) {
		t.Fatal("ring path not conformed")
	}
	// 4 row hops + 6 ring hops (y 4 -> 2 going north with wrap).
	if PathLength(path) != 10 {
		t.Fatalf("ring path length = %d, want 10", PathLength(path))
	}
}

func TestTorusWrapHopDirections(t *testing.T) {
	m := topology.NewTorus(8, 8)
	path := []topology.NodeID{at(m, 7, 0), at(m, 0, 0), at(m, 1, 0)}
	moves := Moves(m, path)
	if moves[0] != topology.East || moves[1] != topology.East {
		t.Fatalf("wrap moves = %v, want east east", moves)
	}
}

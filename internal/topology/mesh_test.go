package topology

import (
	"testing"
	"testing/quick"
)

func TestIDCoordRoundTrip(t *testing.T) {
	m := NewMesh(5, 3)
	for id := NodeID(0); int(id) < m.Nodes(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Fatalf("round trip %d -> %v -> %d", id, m.Coord(id), got)
		}
	}
}

func TestIDRowMajor(t *testing.T) {
	m := NewMesh(4, 4)
	if m.ID(Coord{0, 0}) != 0 {
		t.Fatal("origin is not node 0")
	}
	if m.ID(Coord{3, 0}) != 3 {
		t.Fatal("end of first row is not node 3")
	}
	if m.ID(Coord{0, 1}) != 4 {
		t.Fatal("start of second row is not node 4")
	}
}

func TestContains(t *testing.T) {
	m := NewMesh(4, 2)
	cases := []struct {
		c    Coord
		want bool
	}{
		{Coord{0, 0}, true},
		{Coord{3, 1}, true},
		{Coord{4, 0}, false},
		{Coord{0, 2}, false},
		{Coord{-1, 0}, false},
		{Coord{0, -1}, false},
	}
	for _, tc := range cases {
		if got := m.Contains(tc.c); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestIDPanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ID outside mesh did not panic")
		}
	}()
	NewMesh(2, 2).ID(Coord{2, 0})
}

func TestCoordPanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Coord outside mesh did not panic")
		}
	}()
	NewMesh(2, 2).Coord(4)
}

func TestNewMeshInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMesh(0, 3) did not panic")
		}
	}()
	NewMesh(0, 3)
}

func TestDistance(t *testing.T) {
	m := NewSquareMesh(8)
	a := m.ID(Coord{1, 2})
	b := m.ID(Coord{5, 7})
	if got := m.Distance(a, b); got != 9 {
		t.Fatalf("Distance = %d, want 9", got)
	}
	if got := m.Distance(a, a); got != 0 {
		t.Fatalf("self Distance = %d, want 0", got)
	}
}

func TestDistanceSymmetricProperty(t *testing.T) {
	m := NewSquareMesh(16)
	prop := func(a, b uint8) bool {
		na := NodeID(int(a) % m.Nodes())
		nb := NodeID(int(b) % m.Nodes())
		return m.Distance(na, nb) == m.Distance(nb, na)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequalityProperty(t *testing.T) {
	m := NewSquareMesh(16)
	prop := func(a, b, c uint8) bool {
		na := NodeID(int(a) % m.Nodes())
		nb := NodeID(int(b) % m.Nodes())
		nc := NodeID(int(c) % m.Nodes())
		return m.Distance(na, nc) <= m.Distance(na, nb)+m.Distance(nb, nc)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeighbor(t *testing.T) {
	m := NewSquareMesh(4)
	center := m.ID(Coord{1, 1})
	cases := []struct {
		p    Port
		want Coord
	}{
		{East, Coord{2, 1}},
		{West, Coord{0, 1}},
		{North, Coord{1, 2}},
		{South, Coord{1, 0}},
	}
	for _, tc := range cases {
		n, ok := m.Neighbor(center, tc.p)
		if !ok || m.Coord(n) != tc.want {
			t.Errorf("Neighbor(%v) = %v, %v; want %v", tc.p, m.Coord(n), ok, tc.want)
		}
	}
}

func TestNeighborEdges(t *testing.T) {
	m := NewSquareMesh(4)
	corner := m.ID(Coord{0, 0})
	if _, ok := m.Neighbor(corner, West); ok {
		t.Error("west neighbor of west edge exists")
	}
	if _, ok := m.Neighbor(corner, South); ok {
		t.Error("south neighbor of south edge exists")
	}
	if _, ok := m.Neighbor(corner, Local); ok {
		t.Error("local port has a neighbor")
	}
	far := m.ID(Coord{3, 3})
	if _, ok := m.Neighbor(far, East); ok {
		t.Error("east neighbor of east edge exists")
	}
	if _, ok := m.Neighbor(far, North); ok {
		t.Error("north neighbor of north edge exists")
	}
}

// TestMeshDoesNotWrap: on a rectangular mesh a port leads to a neighbor
// exactly when it does not face off an edge, and opposite corners are the
// full Manhattan distance apart.
func TestMeshDoesNotWrap(t *testing.T) {
	m := NewMesh(5, 3)
	for id := NodeID(0); int(id) < m.Nodes(); id++ {
		c := m.Coord(id)
		for _, e := range []struct {
			p   Port
			off bool
		}{{East, c.X == 4}, {West, c.X == 0}, {North, c.Y == 2}, {South, c.Y == 0}} {
			if _, ok := m.Neighbor(id, e.p); ok == e.off {
				t.Errorf("%v %v: neighbor %v, want %v", c, e.p, ok, !e.off)
			}
		}
	}
	if d := m.Distance(m.ID(Coord{0, 0}), m.ID(Coord{4, 2})); d != 6 {
		t.Errorf("corner distance = %d, want 6", d)
	}
}

func TestNeighborInverseProperty(t *testing.T) {
	// Property: if b is a's neighbor through p, then a is b's neighbor
	// through p.Opposite().
	m := NewMesh(7, 5)
	for id := NodeID(0); int(id) < m.Nodes(); id++ {
		for _, p := range []Port{East, West, North, South} {
			n, ok := m.Neighbor(id, p)
			if !ok {
				continue
			}
			back, ok := m.Neighbor(n, p.Opposite())
			if !ok || back != id {
				t.Fatalf("neighbor inverse failed at %v port %v", m.Coord(id), p)
			}
		}
	}
}

func TestPortOpposite(t *testing.T) {
	pairs := map[Port]Port{East: West, West: East, North: South, South: North}
	for p, want := range pairs {
		if got := p.Opposite(); got != want {
			t.Errorf("Opposite(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestPortOppositeLocalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Opposite(Local) did not panic")
		}
	}()
	Local.Opposite()
}

func TestPortString(t *testing.T) {
	if Local.String() != "local" || East.String() != "east" {
		t.Error("port names wrong")
	}
	if Port(99).String() == "" {
		t.Error("out of range port String empty")
	}
}

func TestCoordString(t *testing.T) {
	if (Coord{3, 4}).String() != "(3,4)" {
		t.Errorf("Coord String = %q", Coord{3, 4}.String())
	}
}

func TestPortPanicsOutsideNetwork(t *testing.T) {
	check := func(what string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	check("Opposite(Local)", func() { Local.Opposite() })
	check("Opposite(NumPorts)", func() { NumPorts.Opposite() })
	m := NewSquareMesh(4)
	check("Neighbor(invalid port)", func() { m.Neighbor(0, Port(9)) })
	if _, ok := m.Neighbor(0, Local); ok {
		t.Fatal("Neighbor(Local) reported a neighbor")
	}
}

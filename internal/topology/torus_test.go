package topology

import "testing"

func TestTorusNeighborWraps(t *testing.T) {
	m := NewTorus(8, 8)
	if !m.Wrap() {
		t.Fatal("Wrap() false on torus")
	}
	east, ok := m.Neighbor(m.ID(Coord{7, 3}), East)
	if !ok || m.Coord(east) != (Coord{0, 3}) {
		t.Fatalf("east wrap = %v, %v", m.Coord(east), ok)
	}
	west, ok := m.Neighbor(m.ID(Coord{0, 3}), West)
	if !ok || m.Coord(west) != (Coord{7, 3}) {
		t.Fatalf("west wrap = %v", m.Coord(west))
	}
	north, ok := m.Neighbor(m.ID(Coord{2, 7}), North)
	if !ok || m.Coord(north) != (Coord{2, 0}) {
		t.Fatalf("north wrap = %v", m.Coord(north))
	}
	south, ok := m.Neighbor(m.ID(Coord{2, 0}), South)
	if !ok || m.Coord(south) != (Coord{2, 7}) {
		t.Fatalf("south wrap = %v", m.Coord(south))
	}
}

func TestTorusDistanceUsesRings(t *testing.T) {
	m := NewTorus(8, 8)
	a := m.ID(Coord{0, 0})
	b := m.ID(Coord{7, 7})
	if got := m.Distance(a, b); got != 2 {
		t.Fatalf("corner distance = %d, want 2 (wrap both dims)", got)
	}
	c := m.ID(Coord{4, 0})
	if got := m.Distance(a, c); got != 4 {
		t.Fatalf("half-ring distance = %d, want 4", got)
	}
}

func TestTorusTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTorus(2, 8) did not panic")
		}
	}()
	NewTorus(2, 8)
}

func TestMeshDoesNotWrap(t *testing.T) {
	m := NewSquareMesh(4)
	if m.Wrap() {
		t.Fatal("mesh reports wrap")
	}
	if _, ok := m.Neighbor(m.ID(Coord{3, 0}), East); ok {
		t.Fatal("mesh east edge wrapped")
	}
}

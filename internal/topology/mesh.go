// Package topology models the 2-D mesh interconnect geometry used by the
// DSM simulator: node identifiers, coordinates, ports and distances for a
// W x H mesh without wraparound links (the paper evaluates k x k meshes).
package topology

import "fmt"

// NodeID identifies a node (processor + router pair) in the mesh. Nodes are
// numbered in row-major order: id = y*W + x.
type NodeID int

// Coord is an (x, y) mesh coordinate. x selects the column (X dimension,
// routed first under e-cube XY routing), y the row.
type Coord struct {
	X, Y int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Port is a router port direction.
type Port int

// The five router ports of a 2-D mesh router. Local attaches the router to
// its processor-network interface.
const (
	Local Port = iota
	East       // +X
	West       // -X
	North      // +Y
	South      // -Y
	NumPorts
)

var portNames = [NumPorts]string{"local", "east", "west", "north", "south"}

func (p Port) String() string {
	if p < 0 || p >= NumPorts {
		return fmt.Sprintf("port(%d)", int(p))
	}
	return portNames[p]
}

// Opposite returns the port on the neighboring router that faces p.
// Opposite(Local) panics: the local port has no network peer.
func (p Port) Opposite() Port {
	switch p {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	default:
		panic("topology: Opposite of non-network port " + p.String())
	}
}

// Mesh is a W x H 2-D mesh. The zero value is not usable; construct with
// NewMesh or NewSquareMesh.
type Mesh struct {
	w, h int
	// coords is the precomputed NodeID -> Coord table: Coord sits on the
	// simulator's per-route hot paths, where a table lookup beats div/mod.
	coords []Coord
}

// NewMesh returns a W x H mesh. Both dimensions must be positive.
func NewMesh(w, h int) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", w, h))
	}
	m := &Mesh{w: w, h: h}
	m.fillCoords()
	return m
}

func (m *Mesh) fillCoords() {
	m.coords = make([]Coord, m.w*m.h)
	for i := range m.coords {
		m.coords[i] = Coord{X: i % m.w, Y: i / m.w}
	}
}

// NewSquareMesh returns a k x k mesh, the configuration the paper evaluates.
func NewSquareMesh(k int) *Mesh { return NewMesh(k, k) }

// Width returns the number of columns.
func (m *Mesh) Width() int { return m.w }

// Height returns the number of rows.
func (m *Mesh) Height() int { return m.h }

// Nodes returns the total node count.
func (m *Mesh) Nodes() int { return m.w * m.h }

// Contains reports whether c is a valid coordinate in the mesh.
func (m *Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.w && c.Y >= 0 && c.Y < m.h
}

// ID converts a coordinate to a node identifier. It panics on coordinates
// outside the mesh.
func (m *Mesh) ID(c Coord) NodeID {
	if !m.Contains(c) {
		panic(fmt.Sprintf("topology: coordinate %v outside %dx%d mesh", c, m.w, m.h))
	}
	return NodeID(c.Y*m.w + c.X)
}

// Coord converts a node identifier to its coordinate. It panics on
// identifiers outside the mesh.
func (m *Mesh) Coord(id NodeID) Coord {
	if int(id) < 0 || int(id) >= len(m.coords) {
		panic(fmt.Sprintf("topology: node %d outside %dx%d mesh", id, m.w, m.h))
	}
	return m.coords[id]
}

// Distance returns the minimal hop count between two nodes, their
// Manhattan distance.
func (m *Mesh) Distance(a, b NodeID) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

// Neighbor returns the node adjacent to id through port p, and whether such
// a neighbor exists (mesh edges have no wraparound).
func (m *Mesh) Neighbor(id NodeID, p Port) (NodeID, bool) {
	c := m.Coord(id)
	switch p {
	case East:
		c.X++
	case West:
		c.X--
	case North:
		c.Y++
	case South:
		c.Y--
	case Local:
		// The local port faces the node itself, not a neighbor.
		return 0, false
	default:
		panic("topology: Neighbor through invalid port " + p.String())
	}
	if !m.Contains(c) {
		return 0, false
	}
	return m.ID(c), true
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

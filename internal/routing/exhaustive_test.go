package routing

import (
	"testing"

	"repro/internal/topology"
)

// TestExhaustiveUnicastAllPairsAllBases checks, for every (src, dst) pair
// on a 5x5 mesh and every base routing, that the unicast path is minimal,
// endpoint-correct, hop-contiguous and conformed.
func TestExhaustiveUnicastAllPairsAllBases(t *testing.T) {
	m := topology.NewMesh(5, 5)
	for _, base := range []Base{ECube, WestFirst, PlanarAdaptive} {
		for src := topology.NodeID(0); int(src) < m.Nodes(); src++ {
			for dst := topology.NodeID(0); int(dst) < m.Nodes(); dst++ {
				p := base.UnicastPath(m, src, dst)
				if p[0] != src || p[len(p)-1] != dst {
					t.Fatalf("%v %d->%d: endpoints wrong", base, src, dst)
				}
				if PathLength(p) != m.Distance(src, dst) {
					t.Fatalf("%v %d->%d: length %d, want %d", base, src, dst,
						PathLength(p), m.Distance(src, dst))
				}
				if !base.Conforms(Moves(m, p)) {
					t.Fatalf("%v %d->%d: path not conformed", base, src, dst)
				}
			}
		}
	}
}

// TestExhaustivePathThroughPairs checks every (home, a, b) waypoint triple
// on a 4x4 mesh: whenever PathThrough succeeds its path must be conformed
// and visit the waypoints in order; and under planar-adaptive (which
// covers any single dominance pair) a two-waypoint chain in one quadrant
// must always succeed.
func TestExhaustivePathThroughPairs(t *testing.T) {
	m := topology.NewMesh(4, 4)
	for home := topology.NodeID(0); int(home) < m.Nodes(); home++ {
		for a := topology.NodeID(0); int(a) < m.Nodes(); a++ {
			for b := topology.NodeID(0); int(b) < m.Nodes(); b++ {
				if a == home || b == home || a == b {
					continue
				}
				for _, base := range []Base{ECube, WestFirst, PlanarAdaptive} {
					path, err := base.PathThrough(m, []topology.NodeID{home, a, b})
					if err != nil {
						continue
					}
					if !base.Conforms(Moves(m, path)) {
						t.Fatalf("%v via %d,%d: accepted non-conformed path", base, a, b)
					}
					idx := 0
					wps := []topology.NodeID{home, a, b}
					for _, nd := range path {
						if idx < len(wps) && nd == wps[idx] {
							idx++
						}
					}
					if idx != len(wps) {
						t.Fatalf("%v via %d,%d: waypoints not visited in order", base, a, b)
					}
				}
				// Planar-adaptive completeness on dominance chains.
				hc, ca, cb := m.Coord(home), m.Coord(a), m.Coord(b)
				if dominates(hc, ca) && dominates(ca, cb) {
					if _, err := PlanarAdaptive.PathThrough(m, []topology.NodeID{home, a, b}); err != nil {
						t.Fatalf("planar-adaptive rejected dominance chain %v %v %v", hc, ca, cb)
					}
				}
			}
		}
	}
}

// dominates reports p <= q in the NE dominance order.
func dominates(p, q topology.Coord) bool {
	return q.X >= p.X && q.Y >= p.Y
}

// TestExhaustiveECubeCompleteness: e-cube must accept exactly the
// waypoint pairs forming a row-then-column progression.
func TestExhaustiveECubeCompleteness(t *testing.T) {
	m := topology.NewMesh(4, 4)
	home := m.ID(topology.Coord{X: 0, Y: 0})
	for a := topology.NodeID(0); int(a) < m.Nodes(); a++ {
		if a == home {
			continue
		}
		// A single destination must always work under every base.
		for _, base := range []Base{ECube, WestFirst, PlanarAdaptive} {
			if _, err := base.PathThrough(m, []topology.NodeID{home, a}); err != nil {
				t.Fatalf("%v rejected single destination %v", base, m.Coord(a))
			}
		}
	}
}

package apps

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestQuadtreeContainsAllBodies(t *testing.T) {
	rngBodies := func(n int) []body {
		bs := make([]body, n)
		for i := range bs {
			bs[i] = body{x: float64(i%7) * 0.13, y: float64(i%11) * 0.09, mass: 1}
		}
		return bs
	}
	bodies := rngBodies(50)
	tree := buildTree(bodies)
	// Total mass at the root equals the sum of body masses.
	root := tree.cells[0]
	if math.Abs(root.mass-50) > 1e-9 {
		t.Fatalf("root mass = %v, want 50", root.mass)
	}
	// Center of mass lies inside the bounding square.
	if root.mx < root.cx-root.half || root.mx > root.cx+root.half ||
		root.my < root.cy-root.half || root.my > root.cy+root.half {
		t.Fatalf("center of mass (%v,%v) outside root square", root.mx, root.my)
	}
}

func TestQuadtreeTraversalVisitsSubsetOfBodies(t *testing.T) {
	bodies := make([]body, 64)
	for i := range bodies {
		bodies[i] = body{x: float64(i%8) / 8, y: float64(i/8) / 8, mass: 1}
	}
	tree := buildTree(bodies)
	cells, bs, interactions := tree.traverse(0, 0.5)
	if interactions == 0 {
		t.Fatal("no interactions computed")
	}
	if len(bs) >= len(bodies) {
		t.Fatalf("traversal visited %d bodies of %d: multipole acceptance never fired", len(bs), len(bodies))
	}
	if len(cells) == 0 {
		t.Fatal("traversal visited no cells")
	}
	// The force on body 0 must be nonzero and finite.
	b0 := tree.bodies[0]
	if b0.ax == 0 && b0.ay == 0 {
		t.Fatal("zero acceleration on body 0")
	}
	if math.IsNaN(b0.ax) || math.IsInf(b0.ax, 0) {
		t.Fatal("non-finite acceleration")
	}
}

func TestQuadtreeThetaControlsAccuracyWorkTradeoff(t *testing.T) {
	bodies := make([]body, 64)
	for i := range bodies {
		bodies[i] = body{x: float64(i%8) / 8, y: float64(i/8) / 8, mass: 1}
	}
	interactionsAt := func(theta float64) int {
		tree := buildTree(bodies)
		_, _, n := tree.traverse(0, theta)
		return n
	}
	precise := interactionsAt(0.1) // small theta: almost direct
	coarse := interactionsAt(1.2)  // large theta: aggressive approximation
	if coarse >= precise {
		t.Fatalf("theta=1.2 interactions %d not below theta=0.1 %d", coarse, precise)
	}
}

func TestQuadtreeColocatedBodiesDoNotRecurseForever(t *testing.T) {
	bodies := []body{
		{x: 0.5, y: 0.5, mass: 1},
		{x: 0.5, y: 0.5, mass: 1}, // exactly co-located
		{x: 0.1, y: 0.9, mass: 1},
	}
	tree := buildTree(bodies) // must terminate
	if tree.cells[0].mass != 3 {
		t.Fatalf("root mass = %v, want 3", tree.cells[0].mass)
	}
}

// TestTraverseAllocatesNothing pins the force phase's cost per body: on a
// warm tree a traversal reuses the tree's visit lists and allocates nothing.
// It also checks what lets the lists skip deduplication: a walk from the
// root reaches each cell and each body at most once.
func TestTraverseAllocatesNothing(t *testing.T) {
	bodies := make([]body, 256)
	rng := sim.NewRNG(3)
	for i := range bodies {
		bodies[i] = body{x: rng.Float64(), y: rng.Float64(), mass: 1}
	}
	tree := buildTree(bodies)
	for bi := range bodies {
		cells, bs, _ := tree.traverse(bi, 0.5)
		if !distinct(cells) || !distinct(bs) {
			t.Fatalf("body %d: a visit list repeats an entry: cells %v, bodies %v", bi, cells, bs)
		}
	}
	bi := 0
	allocs := testing.AllocsPerRun(100, func() {
		tree.traverse(bi, 0.5)
		bi = (bi + 1) % len(bodies)
	})
	if allocs != 0 {
		t.Fatalf("traverse allocates %v per call on a warm tree, want 0", allocs)
	}
}

func distinct(xs []int) bool {
	seen := map[int]bool{}
	for _, x := range xs {
		if seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

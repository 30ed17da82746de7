package apps

import (
	"math"

	"repro/internal/directory"
	"repro/internal/sim"
)

// BarnesConfig configures the Barnes-Hut N-body workload. The defaults
// follow the paper: 128 bodies simulated for 4 time steps.
type BarnesConfig struct {
	// Bodies is the number of bodies (default 128).
	Bodies int
	// Steps is the number of time steps (default 4).
	Steps int
	// Procs is the number of processors (bodies are block-distributed).
	Procs int
	// Theta is the multipole acceptance criterion (default 0.5).
	Theta float64
	// Seed initializes body placement (default 1).
	Seed uint64
	// InteractionCost is the compute time per force interaction (default
	// 20 cycles = one 100 MHz FPU-ish interaction).
	InteractionCost sim.Time
}

func (c *BarnesConfig) defaults() {
	if c.Bodies == 0 {
		c.Bodies = 128
	}
	if c.Steps == 0 {
		c.Steps = 4
	}
	if c.Procs == 0 {
		c.Procs = PublishedProcs
	}
	if c.Theta == 0 {
		c.Theta = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.InteractionCost == 0 {
		c.InteractionCost = 20
	}
}

// body is the generator-side simulation state.
type body struct {
	x, y   float64
	vx, vy float64
	ax, ay float64
	mass   float64
}

// qcell is a quadtree cell.
type qcell struct {
	// bounding square
	cx, cy, half float64
	// children[i] < 0: empty; >= bodyBase: body index; else cell index.
	children [4]int
	// center of mass
	mx, my, mass float64
	// id is the cell's stable block index (creation order).
	id int
}

const (
	emptyChild = -1
	bodyBase   = 1 << 30
)

// quadtree builds the tree and computes centers of mass.
type quadtree struct {
	cells  []qcell
	bodies []body
	// visitCells and visitBodies are traverse's result lists.
	visitCells, visitBodies []int
}

func buildTree(bodies []body) *quadtree {
	// Bounding square over all bodies.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, b := range bodies {
		minX, maxX = math.Min(minX, b.x), math.Max(maxX, b.x)
		minY, maxY = math.Min(minY, b.y), math.Max(maxY, b.y)
	}
	half := math.Max(maxX-minX, maxY-minY)/2 + 1e-9
	t := &quadtree{bodies: bodies}
	root := t.newCell((minX+maxX)/2, (minY+maxY)/2, half)
	for i := range bodies {
		t.insert(root, i)
	}
	t.summarize(root)
	return t
}

func (t *quadtree) newCell(cx, cy, half float64) int {
	id := len(t.cells)
	c := qcell{cx: cx, cy: cy, half: half, id: id}
	for i := range c.children {
		c.children[i] = emptyChild
	}
	t.cells = append(t.cells, c)
	return id
}

func (t *quadtree) quadrant(ci, bi int) int {
	c := &t.cells[ci]
	b := &t.bodies[bi]
	q := 0
	if b.x >= c.cx {
		q |= 1
	}
	if b.y >= c.cy {
		q |= 2
	}
	return q
}

func (t *quadtree) childCenter(ci, q int) (float64, float64, float64) {
	c := &t.cells[ci]
	h := c.half / 2
	cx, cy := c.cx-h, c.cy-h
	if q&1 != 0 {
		cx = c.cx + h
	}
	if q&2 != 0 {
		cy = c.cy + h
	}
	return cx, cy, h
}

func (t *quadtree) insert(ci, bi int) {
	q := t.quadrant(ci, bi)
	child := t.cells[ci].children[q]
	switch {
	case child == emptyChild:
		t.cells[ci].children[q] = bodyBase + bi
	case child >= bodyBase:
		// Split: push the resident body down alongside the new one.
		old := child - bodyBase
		cx, cy, h := t.childCenter(ci, q)
		nc := t.newCell(cx, cy, h)
		t.cells[ci].children[q] = nc
		// Degenerate co-located bodies recurse forever; jitter guard.
		if h < 1e-12 {
			t.cells[nc].children[0] = bodyBase + old
			t.cells[nc].children[1] = bodyBase + bi
			return
		}
		t.insert(nc, old)
		t.insert(nc, bi)
	default:
		t.insert(child, bi)
	}
}

func (t *quadtree) summarize(ci int) (mx, my, mass float64) {
	c := &t.cells[ci]
	for _, ch := range c.children {
		switch {
		case ch == emptyChild:
		case ch >= bodyBase:
			b := &t.bodies[ch-bodyBase]
			mx += b.x * b.mass
			my += b.y * b.mass
			mass += b.mass
		default:
			cmx, cmy, cm := t.summarize(ch)
			mx += cmx * cm
			my += cmy * cm
			mass += cm
		}
	}
	if mass > 0 {
		c.mx, c.my, c.mass = mx/mass, my/mass, mass
	}
	return c.mx, c.my, c.mass
}

// traverse computes the force on body bi and reports the cells and bodies
// the walk visits, in visit order: the shared reads of the force phase.
// Every cell and body sits in exactly one child slot, so a walk from the root
// reaches each at most once and the lists need no deduplication. They are the
// tree's own, reused by every call: valid until the next one.
func (t *quadtree) traverse(bi int, theta float64) (cells, bodies []int, interactions int) {
	t.visitCells, t.visitBodies = t.visitCells[:0], t.visitBodies[:0]
	interactions = t.walk(0, bi, theta)
	return t.visitCells, t.visitBodies, interactions
}

// walk visits cell ci for traverse and returns its interactions.
func (t *quadtree) walk(ci, bi int, theta float64) (interactions int) {
	c := &t.cells[ci]
	b := &t.bodies[bi]
	t.visitCells = append(t.visitCells, ci)
	dx, dy := c.mx-b.x, c.my-b.y
	dist := math.Sqrt(dx*dx+dy*dy) + 1e-12
	if (2*c.half)/dist < theta && c.mass > 0 {
		// Accept the cell as a single interaction.
		f := c.mass / (dist * dist * dist)
		b.ax += f * dx
		b.ay += f * dy
		return 1
	}
	for _, ch := range c.children {
		switch {
		case ch == emptyChild:
		case ch >= bodyBase:
			oi := ch - bodyBase
			if oi == bi {
				continue
			}
			t.visitBodies = append(t.visitBodies, oi)
			o := &t.bodies[oi]
			ddx, ddy := o.x-b.x, o.y-b.y
			d := math.Sqrt(ddx*ddx+ddy*ddy) + 1e-3 // softening
			f := o.mass / (d * d * d)
			b.ax += f * ddx
			b.ay += f * ddy
			interactions++
		default:
			interactions += t.walk(ch, bi, theta)
		}
	}
	return interactions
}

// BarnesHut generates the Barnes-Hut workload: per step, processor 0
// rebuilds the shared quadtree (writing every cell), all processors compute
// forces on their bodies by tree traversal (reading cells and leaf bodies),
// and each processor writes back its own bodies' positions — invalidating
// every processor whose traversals read them.
func BarnesHut(cfg BarnesConfig) Workload {
	cfg.defaults()
	rng := sim.NewRNG(cfg.Seed)
	bodies := make([]body, cfg.Bodies)
	for i := range bodies {
		bodies[i] = body{
			x:    rng.Float64(),
			y:    rng.Float64(),
			vx:   (rng.Float64() - 0.5) * 0.1,
			vy:   (rng.Float64() - 0.5) * 0.1,
			mass: 1,
		}
	}
	bodyBlock := func(i int) directory.BlockID { return directory.BlockID(i) }
	cellBlock := func(c int) directory.BlockID { return directory.BlockID(cfg.Bodies + c) }
	owner := func(bi int) int { return bi * cfg.Procs / cfg.Bodies }

	barCounter := directory.BlockID(cfg.Bodies * 16)
	b := newBuilder(cfg.Procs, barCounter)
	read := func(p int, blk directory.BlockID) { b.refs(p, OpRead, blk, 1) }
	write := func(p int, blk directory.BlockID) { b.refs(p, OpWrite, blk, 1) }
	maxCell := 0

	const dt = 0.05
	for step := 0; step < cfg.Steps; step++ {
		b.barrier()
		// Tree build on processor 0: read every body, write every cell.
		tree := buildTree(bodies)
		if len(tree.cells) > maxCell {
			maxCell = len(tree.cells)
		}
		for i := range bodies {
			read(0, bodyBlock(i))
		}
		for _, c := range tree.cells {
			write(0, cellBlock(c.id))
			b.compute(0, 4)
		}
		b.barrier()
		// Force phase.
		for i := range bodies {
			bodies[i].ax, bodies[i].ay = 0, 0
		}
		for bi := range bodies {
			p := owner(bi)
			cells, bs, inter := tree.traverse(bi, cfg.Theta)
			read(p, bodyBlock(bi))
			for _, c := range cells {
				read(p, cellBlock(c))
			}
			for _, ob := range bs {
				read(p, bodyBlock(ob))
			}
			b.compute(p, sim.Time(inter)*cfg.InteractionCost)
		}
		b.barrier()
		// Update phase: leapfrog integration, write own bodies.
		for bi := range bodies {
			bd := &bodies[bi]
			bd.vx += bd.ax * dt
			bd.vy += bd.ay * dt
			bd.x += bd.vx * dt
			bd.y += bd.vy * dt
			write(owner(bi), bodyBlock(bi))
			b.compute(owner(bi), 8)
		}
	}
	b.barrier()
	if cfg.Bodies+maxCell >= int(barCounter) {
		panic("apps: barnes cell blocks collide with barrier blocks")
	}
	return b.workload("Barnes-Hut", cfg.Bodies+maxCell)
}

// Package routing implements the base unicast routing schemes of the paper
// (deterministic e-cube / XY and the west-first turn model) together with
// the BRCP (Base-Routing-Conformed-Path) machinery: constructing and
// validating the paths multidestination worms follow.
//
// Under the BRCP model a multidestination worm must traverse a path that the
// base unicast routing could itself have produced; this is what lets the
// worms share the base routing's deadlock-freedom proof without extra
// virtual channels. For e-cube XY routing a conformed path is a monotone
// run of X hops followed by a monotone run of Y hops. For west-first, all
// westward hops must precede every other hop, and the path may thereafter
// mix {east, north, south} hops freely as long as it never makes a 180
// degree reversal.
package routing

import (
	"fmt"
	"slices"

	"repro/internal/topology"
)

// Base selects a base unicast routing scheme.
type Base int

const (
	// ECube is deterministic dimension-ordered XY routing [6].
	ECube Base = iota
	// WestFirst is the west-first turn model [15]: a packet makes all its
	// westward hops first and thereafter routes adaptively among east,
	// north and south.
	WestFirst
	// PlanarAdaptive is planar-adaptive routing [5]: within the 2-D plane a
	// packet may take any minimal path, so a conformed path is any
	// monotone staircase (at most one direction per dimension, freely
	// interleaved) — which lets one multidestination worm cover a set of
	// destinations along any diagonal, as the paper observes.
	PlanarAdaptive
)

func (b Base) String() string {
	switch b {
	case ECube:
		return "ecube"
	case WestFirst:
		return "west-first"
	case PlanarAdaptive:
		return "planar-adaptive"
	}
	return fmt.Sprintf("base(%d)", int(b))
}

// UnicastPath returns the node sequence (inclusive of src and dst) the base
// routing takes from src to dst.
func (b Base) UnicastPath(m *topology.Mesh, src, dst topology.NodeID) []topology.NodeID {
	return b.UnicastPathInto(nil, m, src, dst)
}

// UnicastPathInto appends the base path from src to dst (inclusive of both)
// to buf and returns the result, letting callers reuse a path buffer across
// sends instead of allocating one per worm. An off-mesh src or dst panics.
//
// Every base is simulated deterministically, as an X run then a Y run:
// e-cube is deterministic by definition; planar-adaptive permits any
// minimal path, and dimension order is one that conforms; for west-first
// the canonical minimal choice is west hops first, then east, then the Y
// dimension, one of the routes the adaptive router may take. The turn
// model's *adaptivity* is exploited where the paper exploits it: in the
// extra multidestination paths that PathThrough admits.
func (b Base) UnicastPathInto(buf []topology.NodeID, m *topology.Mesh, src, dst topology.NodeID) []topology.NodeID {
	cs, cd := m.Coord(src), m.Coord(dst)
	switch b {
	case ECube, PlanarAdaptive, WestFirst:
	default:
		panic("routing: unknown base " + b.String())
	}
	x := dimRun(cs.X, cd.X, topology.East, topology.West)
	y := dimRun(cs.Y, cd.Y, topology.North, topology.South)
	return appendLeg(m, append(buf, src), src,
		legOpt{shape: shapeXY, xPort: x.mv, xHops: x.n, yPort: y.mv, yHops: y.n})
}

// Moves converts a node path into its sequence of hop directions.
// It panics if consecutive nodes are not mesh neighbors.
func Moves(m *topology.Mesh, path []topology.NodeID) []topology.Port {
	if len(path) < 2 {
		return nil
	}
	moves := make([]topology.Port, 0, len(path)-1)
	for i := 1; i < len(path); i++ {
		moves = append(moves, hopDir(m, path[i-1], path[i]))
	}
	return moves
}

func hopDir(m *topology.Mesh, from, to topology.NodeID) topology.Port {
	cf, ct := m.Coord(from), m.Coord(to)
	dx, dy := ct.X-cf.X, ct.Y-cf.Y
	switch {
	case dx == 1 && dy == 0:
		return topology.East
	case dx == -1 && dy == 0:
		return topology.West
	case dx == 0 && dy == 1:
		return topology.North
	case dx == 0 && dy == -1:
		return topology.South
	}
	panic(fmt.Sprintf("routing: %v -> %v is not a single hop", cf, ct))
}

// Conformance is modelled as a tiny DFA per base routing: a path conforms
// iff the DFA accepts its move sequence. The DFA state also drives the
// backtracking search in PathThrough.
type dfaState int8

const (
	dfaStart dfaState = iota
	dfaWest           // west-first only: still in the initial westward phase
	dfaEast
	dfaNorth
	dfaSouth
	dfaFail = dfaState(-1)
)

// stateCount returns the size of the base routing's conformance DFA.
func (b Base) stateCount() int {
	if b == PlanarAdaptive {
		// (x direction: unset/E/W) x (y direction: unset/N/S).
		return 9
	}
	return 5
}

// step advances the conformance DFA by one hop direction.
func (b Base) step(s dfaState, mv topology.Port) dfaState {
	if s == dfaFail {
		return dfaFail
	}
	switch b {
	case PlanarAdaptive:
		// State packs (xdir, ydir); a move must match or set its
		// dimension's direction (monotone staircase).
		x, y := int(s)/3, int(s)%3
		switch mv {
		case topology.East:
			if x == 2 {
				return dfaFail
			}
			x = 1
		case topology.West:
			if x == 1 {
				return dfaFail
			}
			x = 2
		case topology.North:
			if y == 2 {
				return dfaFail
			}
			y = 1
		case topology.South:
			if y == 1 {
				return dfaFail
			}
			y = 2
		case topology.Local:
			return dfaFail // not a network hop
		default:
			return dfaFail
		}
		return dfaState(x*3 + y)
	case ECube:
		//simcheck:allow exhaustive -- dfaFail is rejected at function entry
		switch s {
		case dfaStart:
			return dirState(mv)
		case dfaEast, dfaWest:
			// X run may continue in the same direction or turn into a Y run.
			if dirState(mv) == s || mv == topology.North || mv == topology.South {
				return dirState(mv)
			}
		case dfaNorth, dfaSouth:
			if dirState(mv) == s {
				return s
			}
		}
		return dfaFail
	case WestFirst:
		//simcheck:allow exhaustive -- dfaFail is rejected at function entry
		switch s {
		case dfaStart:
			return dirState(mv) // any first move is legal
		case dfaWest:
			// Still in the westward phase: continue west or turn off it —
			// but never reverse 180 degrees into an eastward hop, which no
			// base west-first route produces.
			if mv != topology.East {
				return dirState(mv)
			}
		case dfaEast:
			if mv != topology.West {
				return dirState(mv)
			}
		case dfaNorth:
			if mv == topology.North || mv == topology.East {
				return dirState(mv)
			}
		case dfaSouth:
			if mv == topology.South || mv == topology.East {
				return dirState(mv)
			}
		}
		return dfaFail
	}
	panic("routing: unknown base " + b.String())
}

func dirState(mv topology.Port) dfaState {
	switch mv {
	case topology.East:
		return dfaEast
	case topology.West:
		return dfaWest
	case topology.North:
		return dfaNorth
	case topology.South:
		return dfaSouth
	case topology.Local:
		return dfaFail // not a direction
	}
	return dfaFail
}

// Conforms reports whether a hop-direction sequence is a path the base
// routing could produce (the BRCP validity condition).
func (b Base) Conforms(moves []topology.Port) bool {
	s := dfaStart
	for _, mv := range moves {
		s = b.step(s, mv)
		if s == dfaFail {
			return false
		}
	}
	return true
}

// legShape is one way to realize a leg between consecutive waypoints.
type legShape int8

const (
	shapeXY legShape = iota // all X hops, then all Y hops
	shapeYX                 // all Y hops, then all X hops
)

// legOpt is one concrete realization of a leg: a shape plus an explicit
// direction and hop count per dimension (a mesh admits one direction per
// dimension).
type legOpt struct {
	shape        legShape
	xPort, yPort topology.Port
	xHops, yHops int
}

// legRun is a straight run of hops in one direction.
type legRun struct {
	mv topology.Port
	n  int
}

// runs returns the leg's two straight runs in travel order.
func (o legOpt) runs() [2]legRun {
	if o.shape == shapeYX {
		return [2]legRun{{o.yPort, o.yHops}, {o.xPort, o.xHops}}
	}
	return [2]legRun{{o.xPort, o.xHops}, {o.yPort, o.yHops}}
}

// hops returns the leg's length.
func (o legOpt) hops() int { return o.xHops + o.yHops }

// legOpts holds one leg's realizations in search order: at most two
// shapes.
type legOpts struct {
	n   int
	opt [2]legOpt
}

// Search is the reusable scratch of the conformed-path search behind
// PathThrough and PathThroughAvoiding: one flat (leg, DFA state) dead-end
// memo and one DFS frame per leg. The zero value is ready to use. A caller
// that searches often (the grouping planner) keeps one, so a steady-state
// search allocates nothing but the path it is asked to grow. A Search must
// not be shared between goroutines.
type Search struct {
	memo   []bool
	frames []searchFrame
}

// searchFrame is the DFS state of one leg: its realizations, the DFA state
// the leg starts in, and the next realization to try.
type searchFrame struct {
	opts legOpts
	st   dfaState
	next int
}

// PathThrough builds the full node path of a multidestination worm that
// starts at waypoints[0] and visits the remaining waypoints in order,
// choosing for every leg between the X-then-Y and Y-then-X realization so
// that the *concatenated* path conforms to the base routing (BRCP). The
// Y-then-X option is what lets a west-first worm snake boustrophedon-style
// across columns (the N->E, E->S, S->E, E->N turns are all legal under the
// turn model).
//
// It returns an error when the waypoint sequence admits no conformed path;
// callers (the grouping schemes) treat that as "this set needs another
// worm". The search is a DFS over leg shapes memoized on (leg index, DFA
// state), so it runs in O(legs x states). The path is allocated once, at
// its exact length.
func (b Base) PathThrough(m *topology.Mesh, waypoints []topology.NodeID) ([]topology.NodeID, error) {
	return b.PathThroughInto(nil, nil, m, waypoints)
}

// PathThroughInto is PathThrough appending the path to buf and searching in
// s's scratch (a fresh Search when s is nil). A buf too short for the path
// grows once: to exactly the path's length when buf is empty, by doubling
// when it is a reused buffer.
func (b Base) PathThroughInto(buf []topology.NodeID, s *Search, m *topology.Mesh, waypoints []topology.NodeID) ([]topology.NodeID, error) {
	if len(waypoints) == 0 {
		return nil, fmt.Errorf("routing: empty waypoint list")
	}
	if s == nil {
		s = new(Search)
	}
	path, ok := s.through(b, buf, m, waypoints, nil)
	if !ok {
		return nil, fmt.Errorf("routing: no %v-conformed path through %d waypoints from %v",
			b, len(waypoints), m.Coord(waypoints[0]))
	}
	return path, nil
}

// through is the one conformed-path search. It appends to buf the path from
// waypoints[0] (there must be at least one) through the rest in order, and
// reports false when the base routing admits none. With a non-nil dead set
// a leg realization qualifies only if its hops cross no dead link (the
// degraded re-realization, PathThroughAvoiding).
//
// The DFS tries each leg's realizations in legOptions order and descends on
// the first that keeps the DFA alive, so it picks the same path a recursive
// search would; a (leg, state) pair found to have no completion is memoized
// and never expanded again.
//
//simcheck:noalloc
func (s *Search) through(b Base, buf []topology.NodeID, m *topology.Mesh, waypoints []topology.NodeID, dead *topology.DeadSet) ([]topology.NodeID, bool) {
	nLegs := len(waypoints) - 1
	if nLegs == 0 {
		buf = append(buf, waypoints[0])
		return buf, true
	}
	states := b.stateCount()
	s.memo = slices.Grow(s.memo[:0], nLegs*states)[:nLegs*states]
	clear(s.memo)
	s.frames = slices.Grow(s.frames[:0], nLegs)[:nLegs]
	frames := s.frames

	frames[0].st, frames[0].next = dfaStart, 0
	legOptions(&frames[0].opts, m, waypoints[0], waypoints[1])
	for leg := 0; leg < nLegs; {
		f := &frames[leg]
		if f.next == f.opts.n {
			// Every realization failed: no completion from this leg in this
			// state.
			s.memo[leg*states+int(f.st)] = true
			if leg == 0 {
				return buf, false
			}
			leg--
			continue
		}
		opt := f.opts.opt[f.next]
		f.next++
		if dead != nil && !legLive(m, waypoints[leg], opt, dead) {
			continue
		}
		ns := b.runLeg(f.st, opt)
		if ns == dfaFail {
			continue
		}
		if leg+1 < nLegs {
			if s.memo[(leg+1)*states+int(ns)] {
				continue
			}
			next := &frames[leg+1]
			next.st, next.next = ns, 0
			legOptions(&next.opts, m, waypoints[leg+1], waypoints[leg+2])
		}
		leg++
	}

	// Each frame's last-tried realization is the chosen one.
	n := 1
	for i := range frames {
		n += frames[i].opts.opt[frames[i].next-1].hops()
	}
	if cap(buf)-len(buf) < n {
		//simcheck:allow noalloc -- a short buf grows once: exactly when empty, by doubling when reused
		grown := make([]topology.NodeID, len(buf), max(len(buf)+n, 2*cap(buf)))
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, waypoints[0])
	for i := range frames {
		buf = appendLeg(m, buf, waypoints[i], frames[i].opts.opt[frames[i].next-1])
	}
	return buf, true
}

// legOptions fills o with a leg's concrete realizations: X-then-Y, then
// Y-then-X when the leg turns.
//
//simcheck:noalloc
func legOptions(o *legOpts, m *topology.Mesh, a, bn topology.NodeID) {
	ca, cb := m.Coord(a), m.Coord(bn)
	x := dimRun(ca.X, cb.X, topology.East, topology.West)
	y := dimRun(ca.Y, cb.Y, topology.North, topology.South)
	shapes := [2]legShape{shapeXY, shapeYX}
	nShapes := 2
	if ca.X == cb.X || ca.Y == cb.Y {
		nShapes = 1
	}
	o.n = nShapes
	for i, sh := range shapes[:nShapes] {
		o.opt[i] = legOpt{shape: sh, xPort: x.mv, xHops: x.n, yPort: y.mv, yHops: y.n}
	}
}

// dimRun returns the straight run that covers one dimension's offset.
//
//simcheck:noalloc
func dimRun(from, to int, fwd, bwd topology.Port) legRun {
	if to >= from {
		return legRun{fwd, to - from}
	}
	return legRun{bwd, from - to}
}

// runLeg advances the DFA across one leg realization without materializing
// the path.
//
//simcheck:noalloc
func (b Base) runLeg(s dfaState, opt legOpt) dfaState {
	for _, run := range opt.runs() {
		for i := 0; i < run.n; i++ {
			s = b.step(s, run.mv)
			if s == dfaFail {
				return dfaFail
			}
		}
	}
	return s
}

// appendLeg extends path (currently ending at a) with the nodes of the leg
// realization, excluding a itself. Each straight run is ID arithmetic: a
// step of ±1 (X) or ±width (Y).
//
//simcheck:noalloc
func appendLeg(m *topology.Mesh, path []topology.NodeID, a topology.NodeID, opt legOpt) []topology.NodeID {
	c := m.Coord(a)
	w, h := m.Width(), m.Height()
	id := int(a)
	for _, run := range opt.runs() {
		// pos is the coordinate the run moves along, size its extent and
		// step its ID delta.
		pos, size, step := &c.X, w, 1
		if run.mv == topology.North || run.mv == topology.South {
			pos, size, step = &c.Y, h, w
		}
		d := 1
		if run.mv == topology.West || run.mv == topology.South {
			d, step = -1, -step
		}
		for i := 0; i < run.n; i++ {
			*pos += d
			id += step
			if *pos < 0 || *pos == size {
				panic("routing: leg fell off mesh")
			}
			path = append(path, topology.NodeID(id))
		}
	}
	return path
}

// PathLength returns the number of hops in a node path.
func PathLength(path []topology.NodeID) int {
	if len(path) == 0 {
		return 0
	}
	return len(path) - 1
}

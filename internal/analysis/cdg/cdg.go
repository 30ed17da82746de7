// Package cdg builds and verifies the Dally-Seitz channel dependency graph
// of the simulator's wormhole network, proving the routing layer's deadlock
// freedom claim: for every base routing scheme, every path the scheme can
// produce — unicast paths and BRCP multidestination worm paths alike — the
// graph of "holds channel A while requesting channel B" dependencies is
// acyclic.
//
// # The model
//
// Vertices are the network's channel resources:
//
//   - inj(vn, v): node v's injection channel on virtual network vn.
//   - link(vn, c, v, d): the link channel of class c entering node v by a
//     hop in direction d on virtual network vn. E-cube and west-first need
//     a single link class; planar-adaptive needs two (see below).
//   - cons(v, c): one of node v's request-network consumption channels,
//     claimed by a delivering worm of class c. For e-cube and west-first
//     the class is the arrival direction, so a 2-D mesh needs exactly the
//     paper's four consumption channels per interface.
//   - cons(v, reply): node v's reply-network consumption channel. Reply
//     deliveries are always final (nothing is forwarded past them), so the
//     drain completes unconditionally and the vertex is a sink.
//   - iack(v, c): node v's i-ack buffer entry reserved by an i-reserve worm
//     of class c.
//
// Edges are the direct-successor dependencies: a worm holds its current
// channel — and, at intermediate destinations, a consumption channel or
// i-ack entry — while requesting the next link on its path. The full
// holds-while-requests relation is the transitive closure of these edges
// along each path, and a transitive closure is acyclic iff the underlying
// relation is, so checking the direct edges suffices.
//
// Which (incoming direction -> outgoing direction) turns can occur is
// governed exactly by the base routing's conformance DFA (routing.DFA):
// a BRCP multidestination worm may only follow paths the base routing
// could produce, so enumerating all reachable (node, DFA state, last move)
// triples enumerates the dependency edges of *every* conformed path — the
// whole point of base-routing conformance is that this set is closed.
//
// # The two virtual networks only depend one way
//
// Forward-and-absorb holds are a request-network phenomenon: only multicast
// and i-reserve worms occupy a consumption channel (and an i-ack entry) at
// an intermediate destination while their header keeps requesting links,
// and both ride the request network. An i-gather worm holds no consumption
// channel at intermediate destinations (it collects posted acks from the
// i-ack buffer), and its stalls waiting for a post are processor-bounded,
// not network-bounded: the home's group launches the gather from the *last*
// member of the group, after the reserve worm has delivered everywhere, so
// a missing post only awaits the local cache's invalidate latency. The one
// genuine request->reply dependency is i-ack entry release: a full i-ack
// file blocks an i-reserve worm until a gather traverses reply links to
// collect the entries, which the graph records as iack -> reply-link edges.
// With reply consumption channels partitioned from the request ones (a
// per-VN split of each interface's consumption channels), no reply-side
// resource ever waits on a request-side one, the dependency between the
// virtual networks is one-way, and acyclicity decomposes per network.
//
// Worms on the reply network follow the reverse base routing (an i-gather
// worm retraces its i-reserve worm's path backwards). The reverse
// discipline's automaton is derived mechanically from the forward DFA by
// subset construction over the reversed, direction-flipped language, so no
// hand-written reverse router can drift out of sync with the real one.
//
// # Planar-adaptive needs two link classes
//
// A monotone staircase discipline admits every turn somewhere: a worm that
// has not yet moved in X may turn north then west, another east then north,
// and the union of their turns closes an E -> N -> W -> S cycle through
// single link channels even though no single worm makes all four turns.
// This is the classical observation that minimal adaptive routing needs
// virtual channels. The verifier therefore splits planar-adaptive channels
// into two classes by X-commitment — "w" once the worm has hopped west,
// "e" otherwise (east-committed or still uncommitted) — the double-y
// scheme's partition. Class transitions are one-way (e -> w, on the first
// westward hop), each class is internally monotone, and the graph is
// acyclic again. E-cube and west-first forbid the offending turns in the
// DFA itself and verify with a single class, i.e. with the unsplit
// channels the paper's router uses.
//
// The protocol-level obligations that are *not* channel dependencies — an
// i-ack post always arrives because the local processor always consumes,
// and the simulator's pooled (rather than class-indexed) grant of the
// physical consumption channels — are discussed in DESIGN.md.
package cdg

import (
	"fmt"
	"strings"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Graph is a channel dependency graph.
type Graph struct {
	names []string
	index map[string]int
	succ  [][]int
	edges map[[2]int]bool
}

func newGraph() *Graph {
	return &Graph{index: map[string]int{}, edges: map[[2]int]bool{}}
}

func (g *Graph) vertex(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	i := len(g.names)
	g.index[name] = i
	g.names = append(g.names, name)
	g.succ = append(g.succ, nil)
	return i
}

func (g *Graph) edge(from, to string) {
	f, t := g.vertex(from), g.vertex(to)
	if g.edges[[2]int{f, t}] {
		return
	}
	g.edges[[2]int{f, t}] = true
	g.succ[f] = append(g.succ[f], t)
}

// HasEdge reports whether the dependency from -> to is in the graph.
func (g *Graph) HasEdge(from, to string) bool {
	f, okF := g.index[from]
	t, okT := g.index[to]
	return okF && okT && g.edges[[2]int{f, t}]
}

// Vertices returns the vertex count.
func (g *Graph) Vertices() int { return len(g.names) }

// Edges returns the edge count.
func (g *Graph) Edges() int { return len(g.edges) }

// Cycle returns the vertex names of one directed cycle, or nil when the
// graph is acyclic. Detection is an iterative three-color DFS in vertex
// insertion order, so the result is deterministic.
func (g *Graph) Cycle() []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(g.names))
	parent := make([]int, len(g.names))
	for i := range parent {
		parent[i] = -1
	}
	type frame struct{ v, next int }
	for start := range g.names {
		if color[start] != white {
			continue
		}
		stack := []frame{{v: start}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.succ[f.v]) {
				w := g.succ[f.v][f.next]
				f.next++
				switch color[w] {
				case white:
					color[w] = gray
					parent[w] = f.v
					stack = append(stack, frame{v: w})
				case gray:
					// Back edge f.v -> w closes a cycle. The parent walk
					// yields w's successors in reverse; flip that tail so
					// the result reads in edge direction, then close the
					// loop by repeating w.
					cycle := []string{g.names[w]}
					for v := f.v; v != w; v = parent[v] {
						cycle = append(cycle, g.names[v])
					}
					for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
					return append(cycle, g.names[w])
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// stepper abstracts a routing discipline's conformance automaton. States
// are opaque; ok=false marks a non-conformable move.
type stepper interface {
	start() uint32
	step(st uint32, mv topology.Port) (uint32, bool)
}

// forward runs the base routing's own DFA (request virtual network).
type forward struct{ d routing.DFA }

func (f forward) start() uint32 { return uint32(f.d.Start()) }

func (f forward) step(st uint32, mv topology.Port) (uint32, bool) {
	ns, ok := f.d.Step(int(st), mv)
	return uint32(ns), ok
}

// reverse accepts exactly the retraced paths: a move sequence s1..sn is
// accepted iff opposite(sn)..opposite(s1) is accepted by the forward DFA.
// It is the subset construction over the forward automaton: the state is
// the bitmask of forward states from which the direction-flipped reversal
// of the moves consumed so far still runs without failing. Every forward
// state is accepting (conformance = never failing), so acceptance here is
// mask non-emptiness — a sound over-approximation for dependency edges.
type reverse struct {
	d      routing.DFA
	states int
}

func (r reverse) start() uint32 { return (1 << r.states) - 1 }

func (r reverse) step(mask uint32, mv topology.Port) (uint32, bool) {
	var next uint32
	for q := 0; q < r.states; q++ {
		t, ok := r.d.Step(q, mv.Opposite())
		if ok && mask&(1<<uint(t)) != 0 {
			next |= 1 << uint(q)
		}
	}
	return next, next != 0
}

// X-commitment tracking for the planar-adaptive channel-class split.
const (
	xNone = iota // no X hop yet: rides the "e" class until committed
	xEast
	xWest
)

func commitX(xc int, mv topology.Port) int {
	if xc == xNone {
		if mv == topology.East {
			return xEast
		}
		if mv == topology.West {
			return xWest
		}
	}
	return xc
}

// disc bundles one virtual network's routing discipline with its channel
// structure.
type disc struct {
	vn int
	st stepper
	// split selects the planar-adaptive two-class channel partition by
	// X-commitment; false means a single (unnamed) class.
	split bool
	// holds marks the request network: its multicast/i-reserve worms hold
	// consumption channels and i-ack entries at intermediate destinations
	// while requesting further links. Reply-network deliveries are final.
	holds bool
}

// class returns the channel class of a worm with X-commitment xc.
func (d disc) class(xc int) string {
	if !d.split {
		return ""
	}
	if xc == xWest {
		return "w"
	}
	return "e"
}

func (d disc) injName(v topology.NodeID) string {
	return fmt.Sprintf("inj%d@%d", d.vn, v)
}

// linkName names the link channel entering v by a hop in direction mv, for
// a worm whose X-commitment after that hop is xc.
func (d disc) linkName(v topology.NodeID, mv topology.Port, xc int) string {
	if c := d.class(xc); c != "" {
		return fmt.Sprintf("link%d:%s:%v->%d", d.vn, c, mv, v)
	}
	return fmt.Sprintf("link%d:%v->%d", d.vn, mv, v)
}

// consName names the request-network consumption channel a worm of class
// (xc, arrival direction mv) delivers through at v.
func (d disc) consName(v topology.NodeID, mv topology.Port, xc int) string {
	if c := d.class(xc); c != "" {
		return fmt.Sprintf("cons:%s.%v@%d", c, mv, v)
	}
	return fmt.Sprintf("cons:%v@%d", mv, v)
}

func (d disc) iackName(v topology.NodeID, mv topology.Port, xc int) string {
	if c := d.class(xc); c != "" {
		return fmt.Sprintf("iack:%s.%v@%d", c, mv, v)
	}
	return fmt.Sprintf("iack:%v@%d", mv, v)
}

// replyConsName names the reply-network consumption channel at v: a sink —
// reply deliveries are final, so the drain completes unconditionally.
func replyConsName(v topology.NodeID) string {
	return fmt.Sprintf("cons:reply@%d", v)
}

var hopPorts = [...]topology.Port{topology.East, topology.West, topology.North, topology.South}

// disciplines returns the two virtual networks' disciplines for base b.
func disciplines(b routing.Base) (request, reply disc) {
	d := b.DFA()
	split := b == routing.PlanarAdaptive
	request = disc{vn: 0, st: forward{d: d}, split: split, holds: true}
	reply = disc{vn: 1, st: reverse{d: d, states: d.States()}, split: split}
	return request, reply
}

// Build constructs the channel dependency graph for base routing b on mesh
// m: request-network edges from the forward discipline, reply-network edges
// from the reverse discipline, plus the one-way iack -> reply-link release
// edges tying them together.
func Build(b routing.Base, m *topology.Mesh) *Graph {
	g := newGraph()
	request, reply := disciplines(b)
	addDiscipline(g, m, request)
	replyLinks := addDiscipline(g, m, reply)
	addReleaseEdges(g, m, request, replyLinks)
	return g
}

// addDiscipline explores every (node, automaton state, X-commitment, last
// move) tuple reachable by paths of the discipline and records the
// dependency edges of all of them. It returns the set of link-channel
// vertex names created, grouped by the node the link enters.
func addDiscipline(g *Graph, m *topology.Mesh, d disc) map[topology.NodeID][]string {
	type pstate struct {
		node topology.NodeID
		st   uint32
		last topology.Port // Local marks "just injected, no move yet"
		xc   int
	}
	links := map[topology.NodeID][]string{}
	linkSeen := map[string]bool{}
	seen := map[pstate]bool{}
	var queue []pstate
	for id := 0; id < m.Nodes(); id++ {
		p := pstate{node: topology.NodeID(id), st: d.st.start(), last: topology.Local, xc: xNone}
		seen[p] = true
		queue = append(queue, p)
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]

		var from, cons, iack string
		if p.last == topology.Local {
			from = d.injName(p.node)
			g.vertex(from)
		} else {
			from = d.linkName(p.node, p.last, p.xc)
			if !linkSeen[from] {
				linkSeen[from] = true
				links[p.node] = append(links[p.node], from)
			}
			if d.holds {
				// Any node a worm occupies by a network hop can be one of
				// its destinations: delivery claims a consumption channel,
				// and an i-reserve worm additionally claims an i-ack buffer
				// entry, while the worm still holds the link it arrived on.
				cons = d.consName(p.node, p.last, p.xc)
				iack = d.iackName(p.node, p.last, p.xc)
				g.edge(from, cons)
				g.edge(from, iack)
			} else {
				// Reply deliveries are final: the drain holds the reply
				// consumption channel but completes unconditionally, so the
				// vertex gets no outgoing edges.
				g.edge(from, replyConsName(p.node))
			}
		}
		for _, mv := range hopPorts {
			next, ok := m.Neighbor(p.node, mv)
			if !ok {
				continue
			}
			nst, ok := d.st.step(p.st, mv)
			if !ok {
				continue
			}
			nxc := commitX(p.xc, mv)
			to := d.linkName(next, mv, nxc)
			g.edge(from, to)
			if cons != "" {
				// A multicast or i-reserve worm serviced as an intermediate
				// destination at p.node keeps holding the consumption channel
				// and i-ack entry until its tail passes — well after its
				// header requests the next link.
				g.edge(cons, to)
				g.edge(iack, to)
			}
			np := pstate{node: next, st: nst, last: mv, xc: nxc}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return links
}

// addReleaseEdges records the one request->reply dependency: a reserved
// i-ack entry at v is freed only when the transaction's i-gather worm
// reaches v over the reply network, so a reserve worm blocked on a full
// i-ack file waits, transitively, on reply link channels into v.
func addReleaseEdges(g *Graph, m *topology.Mesh, request disc, replyLinks map[topology.NodeID][]string) {
	for id := 0; id < m.Nodes(); id++ {
		v := topology.NodeID(id)
		in := replyLinks[v]
		if len(in) == 0 {
			continue
		}
		for _, mv := range hopPorts {
			if _, ok := m.Neighbor(v, mv); !ok {
				continue
			}
			for _, xc := range []int{xNone, xEast, xWest} {
				name := request.iackName(v, mv, xc)
				if _, exists := g.index[name]; !exists {
					continue
				}
				for _, rl := range in {
					g.edge(name, rl)
				}
			}
		}
	}
}

// Result is the verification outcome for one (base routing, mesh) pair.
type Result struct {
	Base     routing.Base
	K        int
	Vertices int
	Edges    int
	// ConsChannels is the number of request-network consumption-channel
	// classes per node interface the verified discipline partitions into:
	// 4 (one per arrival direction — the paper's count) for e-cube and
	// west-first, 8 (split by X-commitment) for planar-adaptive.
	ConsChannels int
	// Cycle is nil when the graph is acyclic; otherwise one offending
	// dependency cycle, first vertex repeated at the end.
	Cycle []string
	// Problems lists cross-validation failures: concrete router paths that
	// do not conform or whose dependencies are missing from the graph.
	Problems []string
	// UnicastPaths and WormPaths count the concrete paths cross-validated
	// against the graph (see Verify).
	UnicastPaths int
	WormPaths    int
}

// OK reports whether the configuration verified cleanly.
func (r Result) OK() bool { return r.Cycle == nil && len(r.Problems) == 0 }

func (r Result) String() string {
	status := "acyclic"
	if r.Cycle != nil {
		status = "CYCLE " + strings.Join(r.Cycle, " -> ")
	}
	if len(r.Problems) > 0 {
		status += "; " + strings.Join(r.Problems, "; ")
	}
	return fmt.Sprintf("cdg: %v %dx%d: %d vertices, %d edges, %d cons classes, %d unicast + %d worm paths checked: %s",
		r.Base, r.K, r.K, r.Vertices, r.Edges, r.ConsChannels, r.UnicastPaths, r.WormPaths, status)
}

// Verify builds the dependency graph for base b on a k x k mesh, checks it
// acyclic, and cross-validates the abstraction against the concrete router:
// every unicast path and a systematic family of BRCP multidestination worm
// paths (via PathThrough) must conform and have all their dependency edges
// present in the graph, and each worm path's retraced gather path must be
// covered by the reply network's edges.
func Verify(b routing.Base, k int) Result {
	m := topology.NewSquareMesh(k)
	g := Build(b, m)
	request, reply := disciplines(b)
	res := Result{Base: b, K: k, Vertices: g.Vertices(), Edges: g.Edges(), Cycle: g.Cycle(), ConsChannels: 4}
	if request.split {
		res.ConsChannels = 8
	}

	check := func(path []topology.NodeID) {
		moves := routing.Moves(m, path)
		if !b.Conforms(moves) {
			res.Problems = append(res.Problems, fmt.Sprintf("NONCONFORMED path from %v", m.Coord(path[0])))
			return
		}
		if bad := pathCovered(g, request, path, moves); bad != "" {
			res.Problems = append(res.Problems, bad)
			return
		}
		// The retraced (gather) path on the reply network.
		if bad := pathCovered(g, reply, reversed(path), oppositeReversed(moves)); bad != "" {
			res.Problems = append(res.Problems, bad)
		}
	}

	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			if src == dst {
				continue
			}
			check(b.UnicastPath(m, topology.NodeID(src), topology.NodeID(dst)))
			res.UnicastPaths++
		}
	}
	for _, wps := range wormWaypointSets(m) {
		path, err := b.PathThrough(m, wps)
		if err != nil {
			continue // no conformed path for this set; the scheme splits it
		}
		if len(path) < 2 {
			continue
		}
		check(path)
		res.WormPaths++
	}
	return res
}

// pathCovered replays a concrete path under discipline d and checks that
// every direct-successor dependency it generates is an edge of the graph;
// it returns a description of the first missing edge, or "".
func pathCovered(g *Graph, d disc, path []topology.NodeID, moves []topology.Port) string {
	st, xc := d.st.start(), xNone
	prev := d.injName(path[0])
	prevCons, prevIAck := "", ""
	for i, mv := range moves {
		nst, ok := d.st.step(st, mv)
		if !ok {
			return fmt.Sprintf("NONCONFORMED retrace at hop %d (%v)", i, mv)
		}
		nxc := commitX(xc, mv)
		next := d.linkName(path[i+1], mv, nxc)
		if !g.HasEdge(prev, next) {
			return fmt.Sprintf("MISSING edge %s -> %s", prev, next)
		}
		if prevCons != "" {
			// The worm was serviced as an intermediate destination one hop
			// back; it still holds that node's cons/iack while requesting
			// this link.
			if !g.HasEdge(prevCons, next) || !g.HasEdge(prevIAck, next) {
				return fmt.Sprintf("MISSING hold edge %s -> %s", prevCons, next)
			}
		}
		prevCons, prevIAck = "", ""
		if d.holds {
			cons := d.consName(path[i+1], mv, nxc)
			iack := d.iackName(path[i+1], mv, nxc)
			if !g.HasEdge(next, cons) || !g.HasEdge(next, iack) {
				return fmt.Sprintf("MISSING destination-service edges at node %d", path[i+1])
			}
			prevCons, prevIAck = cons, iack
		} else if i == len(moves)-1 {
			if want := replyConsName(path[i+1]); !g.HasEdge(next, want) {
				return fmt.Sprintf("MISSING edge %s -> %s", next, want)
			}
		}
		st, xc, prev = nst, nxc, next
	}
	return ""
}

func reversed(path []topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, len(path))
	for i, v := range path {
		out[len(path)-1-i] = v
	}
	return out
}

func oppositeReversed(moves []topology.Port) []topology.Port {
	out := make([]topology.Port, len(moves))
	for i, mv := range moves {
		out[len(moves)-1-i] = mv.Opposite()
	}
	return out
}

// wormWaypointSets enumerates a systematic family of multidestination
// waypoint sequences for cross-validation: every column and row scanned
// from every edge node, boustrophedon snakes across the whole mesh, and
// both diagonals from every corner. These are the shapes the paper's
// grouping schemes emit (column worms, row-wise snakes, planar-adaptive
// diagonals).
func wormWaypointSets(m *topology.Mesh) [][]topology.NodeID {
	var sets [][]topology.NodeID
	w, h := m.Width(), m.Height()
	at := func(x, y int) topology.NodeID { return m.ID(topology.Coord{X: x, Y: y}) }

	// Column sweeps, both directions.
	for x := 0; x < w; x++ {
		var up, down []topology.NodeID
		for y := 0; y < h; y++ {
			up = append(up, at(x, y))
			down = append(down, at(x, h-1-y))
		}
		sets = append(sets, up, down)
	}
	// Row sweeps, both directions.
	for y := 0; y < h; y++ {
		var right, left []topology.NodeID
		for x := 0; x < w; x++ {
			right = append(right, at(x, y))
			left = append(left, at(w-1-x, y))
		}
		sets = append(sets, right, left)
	}
	// Boustrophedon snakes: west-to-east and east-to-west column order.
	var snakeE, snakeW []topology.NodeID
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			yy := y
			if x%2 == 1 {
				yy = h - 1 - y
			}
			snakeE = append(snakeE, at(x, yy))
			snakeW = append(snakeW, at(w-1-x, yy))
		}
	}
	sets = append(sets, snakeE, snakeW)
	// Diagonal staircases from each corner.
	n := w
	if h < n {
		n = h
	}
	var d1, d2, d3, d4 []topology.NodeID
	for i := 0; i < n; i++ {
		d1 = append(d1, at(i, i))
		d2 = append(d2, at(n-1-i, n-1-i))
		d3 = append(d3, at(i, n-1-i))
		d4 = append(d4, at(n-1-i, i))
	}
	sets = append(sets, d1, d2, d3, d4)
	// Sparse multi-leg hops (non-adjacent waypoints exercising the leg
	// realization search).
	if w >= 3 && h >= 3 {
		sets = append(sets,
			[]topology.NodeID{at(0, 0), at(w-1, 0), at(w-1, h-1)},
			[]topology.NodeID{at(0, h-1), at(w/2, h/2), at(w-1, 0)},
			[]topology.NodeID{at(w-1, h-1), at(0, h-1), at(0, 0)},
			[]topology.NodeID{at(w/2, 0), at(0, h/2), at(w/2, h-1), at(w-1, h/2)},
		)
	}
	return sets
}

// Bases returns every base routing scheme under verification.
func Bases() []routing.Base {
	return []routing.Base{routing.ECube, routing.WestFirst, routing.PlanarAdaptive}
}

// VerifyAll verifies every base scheme on every k x k mesh for k in
// [2, maxK].
func VerifyAll(maxK int) []Result {
	var out []Result
	for _, b := range Bases() {
		for k := 2; k <= maxK; k++ {
			out = append(out, Verify(b, k))
		}
	}
	return out
}

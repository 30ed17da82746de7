package coherence

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Multidestination worm barrier: the fast barrier synchronization of the
// companion paper [37], whose machinery (i-ack buffers, reserve and gather
// worms over BRCP paths) this paper's Section 3 builds on. All mesh nodes
// participate. One episode runs in two report levels and two release
// levels:
//
//	report:  each interior node posts its arrival into the i-ack buffer
//	         entry a prior reserve worm left at its router interface; the
//	         tail of each row launches a row gather worm westward that
//	         collects the row's arrivals and delivers to the row leader
//	         (column 0); the top row's leader launches a column gather
//	         southward over the leaders to the coordinator (0,0).
//	release: the coordinator injects a column release worm northward; each
//	         leader it reaches injects its row release worm eastward. The
//	         release worms are *reserve* worms carrying the next episode's
//	         transactions, so release and next-episode setup are the same
//	         W+1 worms — the pipelining that makes the scheme race-free: a
//	         node arrives at episode e+1 only after its release delivery,
//	         which follows the reservation sweep along its row.
//
// Cost per episode: ~2(W+H) worms and O(W+H) network hops, versus the
// Theta(N) serialized hot-spot accesses of a shared-memory sense-reversing
// barrier.
//
// When barrier worms share the machine with coherence traffic, configure
// VCT deferred delivery (Params.Net.VCTDeferred): a gather stalled on a
// straggler's arrival otherwise holds reply-network channels that
// coherence replies need, and the system deadlocks — precisely the
// blocking hazard the virtual cut-through proposal [36] removes by
// parking stalled gathers in the i-ack buffer's message field.
//
// Episode state rolls at release time. That is safe because every gather
// of an episode strictly precedes its release: the column gather collects
// every leader's post, each of which requires that leader's row gather.

// barKind labels barrier worm payloads.
type barKind int

const (
	barSetup      barKind = iota // bootstrap reservation sweep
	barRowGather                 // row arrivals -> row leader
	barColGather                 // leader arrivals -> coordinator
	barColRelease                // coordinator -> leaders (reserves next col txn)
	barRowRelease                // leader -> row (reserves next row txns)
)

// barMsg is the barrier worm payload.
type barMsg struct {
	kind    barKind
	row     int
	episode int
}

// wormBarrier holds the machine-wide barrier state for the current
// episode (plus nodes of the previous episode still awaiting release
// delivery).
type wormBarrier struct {
	episode int
	// rowTxn[r] and colTxn are the current episode's i-ack transactions,
	// reserved at every relevant router interface before any arrival can
	// post to them.
	rowTxn []uint64
	colTxn uint64

	// arrived/resume are per node; cleared when the node's release lands.
	arrived []bool
	resume  []func()
	// arrivedCount counts the current episode's arrivals (for the latency
	// sample's start point).
	arrivedCount int
	firstArrival sim.Time

	rowGatherDone []bool
	colGatherDone bool

	// bootstrap gating: arrivals queue until the initial reservation sweep
	// completes.
	ready        bool
	setupPending int
	queued       []func()
}

// BarrierArrive synchronizes node n with every other node in the machine:
// done runs once all nodes have arrived and the release worms reach n.
// The first use bootstraps the reservation sweep. Requires a mesh of at
// least 2x2. A node must not arrive again before its previous release.
func (m *Machine) BarrierArrive(n topology.NodeID, done func()) {
	if m.Mesh.Width() < 2 || m.Mesh.Height() < 2 {
		panic("coherence: worm barrier needs at least a 2x2 mesh")
	}
	b := m.barrierState()
	if !b.ready {
		b.queued = append(b.queued, func() { m.barrierArrive(n, done) })
		return
	}
	m.barrierArrive(n, done)
}

// BarrierEpisodes returns the number of completed worm-barrier episodes.
func (m *Machine) BarrierEpisodes() int {
	if m.wormBar == nil {
		return 0
	}
	return m.wormBar.episode
}

func (m *Machine) barrierState() *wormBarrier {
	if m.wormBar != nil {
		return m.wormBar
	}
	nodes := m.Mesh.Nodes()
	b := &wormBarrier{
		arrived:       make([]bool, nodes),
		resume:        make([]func(), nodes),
		rowGatherDone: make([]bool, m.Mesh.Height()),
		rowTxn:        make([]uint64, m.Mesh.Height()),
	}
	m.wormBar = b
	for r := range b.rowTxn {
		b.rowTxn[r] = m.newTxnID()
	}
	b.colTxn = m.newTxnID()
	// Bootstrap: one reservation sweep per row plus one up the leader
	// column, owned by the row leaders and the coordinator respectively.
	b.setupPending = m.Mesh.Height() + 1
	for r := 0; r < m.Mesh.Height(); r++ {
		r := r
		leader := m.Mesh.ID(topology.Coord{X: 0, Y: r})
		m.server(leader).do(m.Params.SendOccupancy, func() {
			m.injectBarrierWorm(barSetup, r, 0, b.rowTxn[r], rowPath(m.Mesh, r), network.Reserve)
		})
	}
	coord := m.Mesh.ID(topology.Coord{X: 0, Y: 0})
	m.server(coord).do(m.Params.SendOccupancy, func() {
		m.injectBarrierWorm(barSetup, -1, 0, b.colTxn, colPath(m.Mesh), network.Reserve)
	})
	return b
}

// rowPath is the straight path (0,r) .. (W-1,r).
func rowPath(mesh *topology.Mesh, r int) []topology.NodeID {
	path := make([]topology.NodeID, mesh.Width())
	for x := 0; x < mesh.Width(); x++ {
		path[x] = mesh.ID(topology.Coord{X: x, Y: r})
	}
	return path
}

// colPath is the straight path (0,0) .. (0,H-1).
func colPath(mesh *topology.Mesh) []topology.NodeID {
	path := make([]topology.NodeID, mesh.Height())
	for y := 0; y < mesh.Height(); y++ {
		path[y] = mesh.ID(topology.Coord{X: 0, Y: y})
	}
	return path
}

// reversed returns a reversed copy of path.
func reversed(path []topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, len(path))
	for i, n := range path {
		out[len(path)-1-i] = n
	}
	return out
}

// injectBarrierWorm sends one barrier worm along path; every non-source
// node is a destination. Reserve worms ride the request network, gathers
// the reply network.
func (m *Machine) injectBarrierWorm(kind barKind, row, episode int, txn uint64,
	path []topology.NodeID, wk network.Kind) {
	m.Metrics.MsgsSent[path[0]]++
	w := m.Net.NewWorm()
	dests := w.TakeDestBuf(len(path))
	for i := 1; i < len(path); i++ {
		dests[i] = true
	}
	w.Kind = wk
	w.VN = network.Request
	if wk == network.Gather {
		w.VN = network.Reply
	}
	w.Path = path
	w.Dest = dests
	w.HeaderFlits = m.Params.Net.HeaderFlits(len(path) - 1)
	w.PayloadFlits = m.Params.controlFlits()
	w.TxnID = txn
	w.Tag = &msg{typ: barrier, bar: &barMsg{kind: kind, row: row, episode: episode}}
	m.Net.Inject(w)
}

// barrierArrive processes node n's arrival in the current episode.
func (m *Machine) barrierArrive(n topology.NodeID, done func()) {
	b := m.wormBar
	if b.arrived[n] {
		panic(fmt.Sprintf("coherence: node %d arrived twice at the barrier", n))
	}
	if b.arrivedCount == 0 {
		b.firstArrival = m.Engine.Now()
	}
	b.arrived[n] = true
	b.resume[n] = done
	b.arrivedCount++
	c := m.Mesh.Coord(n)
	rowTxn := b.rowTxn[c.Y]
	switch {
	case c.X == m.Mesh.Width()-1:
		// Row tail: its arrival is the row gather's launch.
		m.server(n).do(m.Params.SendOccupancy, func() {
			m.injectBarrierWorm(barRowGather, c.Y, b.episode, rowTxn,
				reversed(rowPath(m.Mesh, c.Y)), network.Gather)
		})
	case c.X == 0 && c.Y == m.Mesh.Height()-1:
		m.maybeLaunchColGather()
	case c.X == 0 && c.Y > 0:
		m.maybePostLeader(c.Y)
	case c.X == 0 && c.Y == 0:
		m.maybeRelease()
	default:
		// Interior node: post the arrival into the local i-ack buffer (a
		// memory-mapped register write).
		m.server(n).do(m.Params.CacheAccess, func() {
			m.Net.PostAck(n, rowTxn)
		})
	}
}

// maybePostLeader posts leader r's combined arrival (its own plus its
// row's gather) into the column transaction.
func (m *Machine) maybePostLeader(r int) {
	b := m.wormBar
	leader := m.Mesh.ID(topology.Coord{X: 0, Y: r})
	if !b.arrived[leader] || !b.rowGatherDone[r] {
		return
	}
	colTxn := b.colTxn
	m.server(leader).do(m.Params.CacheAccess, func() {
		m.Net.PostAck(leader, colTxn)
	})
}

// maybeLaunchColGather fires the column gather once the top-row leader has
// both arrived and received its row gather.
func (m *Machine) maybeLaunchColGather() {
	b := m.wormBar
	top := m.Mesh.Height() - 1
	leader := m.Mesh.ID(topology.Coord{X: 0, Y: top})
	if !b.arrived[leader] || !b.rowGatherDone[top] {
		return
	}
	colTxn := b.colTxn
	episode := b.episode
	m.server(leader).do(m.Params.SendOccupancy, func() {
		m.injectBarrierWorm(barColGather, -1, episode, colTxn,
			reversed(colPath(m.Mesh)), network.Gather)
	})
}

// maybeRelease fires the release sweep once the coordinator has arrived,
// its own row reported, and the column gather landed — then rolls the
// episode so pipelined arrivals post against the new transactions.
func (m *Machine) maybeRelease() {
	b := m.wormBar
	coord := m.Mesh.ID(topology.Coord{X: 0, Y: 0})
	if !b.arrived[coord] || !b.rowGatherDone[0] || !b.colGatherDone {
		return
	}
	m.Metrics.BarrierLatency.AddTime(m.Engine.Now() - b.firstArrival)
	released := b.episode
	b.episode++
	for r := range b.rowTxn {
		b.rowTxn[r] = m.newTxnID()
	}
	b.colTxn = m.newTxnID()
	for r := range b.rowGatherDone {
		b.rowGatherDone[r] = false
	}
	b.colGatherDone = false
	b.arrivedCount = 0

	colTxn := b.colTxn
	m.server(coord).do(m.Params.SendOccupancy, func() {
		m.injectBarrierWorm(barColRelease, -1, released, colTxn, colPath(m.Mesh), network.Reserve)
	})
	m.releaseRow(0, released)
}

// releaseRow injects row r's release worm (reserving the new episode's row
// transaction) and resumes its leader.
func (m *Machine) releaseRow(r, released int) {
	b := m.wormBar
	leader := m.Mesh.ID(topology.Coord{X: 0, Y: r})
	rowTxn := b.rowTxn[r] // already rolled to the new episode
	m.server(leader).do(m.Params.SendOccupancy, func() {
		m.injectBarrierWorm(barRowRelease, r, released, rowTxn, rowPath(m.Mesh, r), network.Reserve)
		m.barrierResume(leader)
	})
}

// barrierResume completes node n's barrier participation this episode.
func (m *Machine) barrierResume(n topology.NodeID) {
	b := m.wormBar
	if !b.arrived[n] || b.resume[n] == nil {
		panic(fmt.Sprintf("coherence: barrier release reached node %d before its arrival", n))
	}
	done := b.resume[n]
	b.resume[n] = nil
	b.arrived[n] = false
	done()
}

// barrierDeliver dispatches barrier worm deliveries.
func (m *Machine) barrierDeliver(d network.Delivery, bm *barMsg) {
	b := m.wormBar
	switch bm.kind {
	case barSetup:
		if d.Final {
			b.setupPending--
			if b.setupPending == 0 {
				b.ready = true
				queued := b.queued
				b.queued = nil
				for _, fn := range queued {
					fn()
				}
			}
		}
	case barRowGather:
		if d.Final {
			m.server(d.Node).do(m.Params.RecvOccupancy, func() {
				b.rowGatherDone[bm.row] = true
				switch bm.row {
				case 0:
					m.maybeRelease()
				case m.Mesh.Height() - 1:
					m.maybeLaunchColGather()
				default:
					m.maybePostLeader(bm.row)
				}
			})
		}
	case barColGather:
		if d.Final {
			m.server(d.Node).do(m.Params.RecvOccupancy, func() {
				b.colGatherDone = true
				m.maybeRelease()
			})
		}
	case barColRelease:
		if d.Node != m.Mesh.ID(topology.Coord{X: 0, Y: 0}) {
			m.server(d.Node).do(m.Params.RecvOccupancy, func() {
				m.releaseRow(m.Mesh.Coord(d.Node).Y, bm.episode)
			})
		}
	case barRowRelease:
		if c := m.Mesh.Coord(d.Node); c.X > 0 {
			m.server(d.Node).do(m.Params.RecvOccupancy, func() {
				m.barrierResume(d.Node)
			})
		}
	default:
		panic("coherence: unknown barrier worm kind")
	}
}

package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/topology"
)

func newM(t *testing.T, k int, s grouping.Scheme) *Machine {
	t.Helper()
	return NewMachine(DefaultParams(k, s))
}

// doOp issues one operation and runs the simulation to completion.
func doOp(t *testing.T, m *Machine, write bool, n topology.NodeID, b directory.BlockID) {
	t.Helper()
	done := false
	if write {
		m.Write(n, b, func() { done = true })
	} else {
		m.Read(n, b, func() { done = true })
	}
	m.Engine.Run()
	if !done {
		t.Fatalf("operation by node %d on block %d never completed", n, b)
	}
	if !m.Quiesced() {
		t.Fatalf("network not quiesced after op (outstanding=%d)", m.Net.Outstanding())
	}
}

func nodeAt(m *Machine, x, y int) topology.NodeID {
	return m.Mesh.ID(topology.Coord{X: x, Y: y})
}

func TestColdReadInstallsSharer(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	reader := nodeAt(m, 2, 2)
	const b = 5
	doOp(t, m, false, reader, b)
	e := m.DirEntry(b)
	if e.State != directory.Shared || !e.Sharers.Has(reader) {
		t.Fatalf("dir = %v sharers=%v, want shared with reader", e.State, e.Sharers.Nodes())
	}
	if m.Cache(reader).State(b) != cache.SharedLine {
		t.Fatal("reader cache not shared")
	}
	if m.Metrics.ReadMiss.N() != 1 {
		t.Fatal("read miss not recorded")
	}
}

func TestReadHitAfterFill(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	reader := nodeAt(m, 2, 2)
	doOp(t, m, false, reader, 5)
	before := m.Metrics.ReadMiss.N()
	doOp(t, m, false, reader, 5)
	if m.Metrics.ReadMiss.N() != before {
		t.Fatal("second read missed")
	}
}

func TestWriteUncachedGrantsExclusive(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	writer := nodeAt(m, 1, 3)
	const b = 9
	doOp(t, m, true, writer, b)
	e := m.DirEntry(b)
	if e.State != directory.Exclusive || e.Owner != writer {
		t.Fatalf("dir = %v owner=%d, want exclusive by writer", e.State, e.Owner)
	}
	if m.Cache(writer).State(b) != cache.ModifiedLine {
		t.Fatal("writer cache not modified")
	}
	if len(m.Metrics.Invals) != 0 {
		t.Fatal("uncached write should not run an invalidation transaction")
	}
}

func TestUpgradeSoleSharerNoInvalidation(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	n := nodeAt(m, 0, 1)
	const b = 3
	doOp(t, m, false, n, b)
	doOp(t, m, true, n, b)
	if len(m.Metrics.Invals) != 0 {
		t.Fatal("sole-sharer upgrade ran an invalidation transaction")
	}
	if m.Cache(n).State(b) != cache.ModifiedLine {
		t.Fatal("upgrade did not yield modified line")
	}
}

// populateAndWrite has `readers` read block b, then `writer` write it, and
// returns the machine for inspection.
func populateAndWrite(t *testing.T, s grouping.Scheme, readers []topology.Coord, writer topology.Coord) (*Machine, directory.BlockID) {
	t.Helper()
	m := newM(t, 8, s)
	const b = 17
	for _, rc := range readers {
		doOp(t, m, false, m.Mesh.ID(rc), b)
	}
	doOp(t, m, true, m.Mesh.ID(writer), b)
	return m, b
}

func TestInvalidationTransactionAllSchemes(t *testing.T) {
	readers := []topology.Coord{{X: 3, Y: 1}, {X: 3, Y: 6}, {X: 6, Y: 2}, {X: 0, Y: 4}, {X: 5, Y: 5}}
	writer := topology.Coord{X: 2, Y: 2}
	for _, s := range grouping.AllSchemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			m, b := populateAndWrite(t, s, readers, writer)
			e := m.DirEntry(b)
			wid := m.Mesh.ID(writer)
			if e.State != directory.Exclusive || e.Owner != wid {
				t.Fatalf("dir = %v owner=%d, want exclusive by writer %d", e.State, e.Owner, wid)
			}
			for _, rc := range readers {
				n := m.Mesh.ID(rc)
				if m.Cache(n).State(b) != cache.Invalid {
					t.Fatalf("reader %v still caches the block", rc)
				}
			}
			if m.Cache(wid).State(b) != cache.ModifiedLine {
				t.Fatal("writer cache not modified")
			}
			if len(m.Metrics.Invals) != 1 {
				t.Fatalf("inval records = %d, want 1", len(m.Metrics.Invals))
			}
			rec := m.Metrics.Invals[0]
			if rec.Sharers != len(readers) {
				t.Fatalf("record sharers = %d, want %d", rec.Sharers, len(readers))
			}
			if rec.End <= rec.Start {
				t.Fatal("non-positive invalidation latency")
			}
			if s == grouping.UIUA && rec.Groups != len(readers) {
				t.Fatalf("UIUA groups = %d, want %d", rec.Groups, len(readers))
			}
			if s.MultidestRequest() && rec.Groups > len(readers) {
				t.Fatalf("%v used more worms than sharers", s)
			}
		})
	}
}

func TestMIMAHomeReceivesOneAckPerGroup(t *testing.T) {
	// Column sharers: one group, so the home should receive exactly one
	// gather ack instead of d unicast acks.
	m := newM(t, 8, grouping.MIMAEC)
	const b = 0 // home = node 0 = (0,0)
	home := m.Home(b)
	if home != 0 {
		t.Fatalf("home = %d, want 0", home)
	}
	// Sharers up one column east of home.
	for _, c := range []topology.Coord{{X: 4, Y: 1}, {X: 4, Y: 3}, {X: 4, Y: 6}} {
		doOp(t, m, false, m.Mesh.ID(c), b)
	}
	recvBefore := m.Metrics.MsgsRecv[home]
	doOp(t, m, true, m.Mesh.ID(topology.Coord{X: 0, Y: 1}), b)
	rec := m.Metrics.Invals[0]
	if rec.Groups != 1 {
		t.Fatalf("groups = %d, want 1 column worm", rec.Groups)
	}
	// Home receives exactly the writeReq plus one gather ack — not one
	// unicast ack per sharer.
	recvDuring := m.Metrics.MsgsRecv[home] - recvBefore
	if recvDuring != 2 {
		t.Fatalf("home received %d messages during txn, want 2 (writeReq + gather)", recvDuring)
	}
	if rec.HomeMsgs != 2 { // 1 reserve worm sent + 1 gather received
		t.Fatalf("HomeMsgs = %d, want 2", rec.HomeMsgs)
	}
}

func TestUIUAHomeMessageCount(t *testing.T) {
	readers := []topology.Coord{{X: 3, Y: 1}, {X: 3, Y: 6}, {X: 6, Y: 2}, {X: 0, Y: 4}}
	m, _ := populateAndWrite(t, grouping.UIUA, readers, topology.Coord{X: 2, Y: 2})
	rec := m.Metrics.Invals[0]
	if rec.HomeMsgs != 2*len(readers) {
		t.Fatalf("HomeMsgs = %d, want %d", rec.HomeMsgs, 2*len(readers))
	}
}

func TestDirtyReadDowngradesOwner(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	owner := nodeAt(m, 3, 3)
	reader := nodeAt(m, 0, 2)
	const b = 7
	doOp(t, m, true, owner, b)
	doOp(t, m, false, reader, b)
	e := m.DirEntry(b)
	if e.State != directory.Shared {
		t.Fatalf("dir = %v, want shared", e.State)
	}
	if !e.Sharers.Has(owner) || !e.Sharers.Has(reader) {
		t.Fatalf("sharers = %v, want owner and reader", e.Sharers.Nodes())
	}
	if m.Cache(owner).State(b) != cache.SharedLine {
		t.Fatal("owner not downgraded")
	}
	if m.Cache(reader).State(b) != cache.SharedLine {
		t.Fatal("reader not filled")
	}
}

func TestDirtyWriteTransfersOwnership(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	first := nodeAt(m, 3, 3)
	second := nodeAt(m, 0, 2)
	const b = 7
	doOp(t, m, true, first, b)
	doOp(t, m, true, second, b)
	e := m.DirEntry(b)
	if e.State != directory.Exclusive || e.Owner != second {
		t.Fatalf("dir = %v owner=%d, want exclusive by second", e.State, e.Owner)
	}
	if m.Cache(first).State(b) != cache.Invalid {
		t.Fatal("first owner not invalidated")
	}
	if m.Cache(second).State(b) != cache.ModifiedLine {
		t.Fatal("second owner not modified")
	}
}

func TestHomeOwnCopyInvalidatedLocally(t *testing.T) {
	m := newM(t, 4, grouping.MIMAEC)
	const b = 0
	home := m.Home(b)
	writer := nodeAt(m, 2, 2)
	doOp(t, m, false, home, b) // home caches its own block
	sentBefore := m.Metrics.MsgsSent[home]
	doOp(t, m, true, writer, b)
	if m.Cache(home).State(b) != cache.Invalid {
		t.Fatal("home's own copy not invalidated")
	}
	// Only the writeReply should have been sent: no network invalidation.
	if got := m.Metrics.MsgsSent[home] - sentBefore; got != 1 {
		t.Fatalf("home sent %d messages, want 1 (reply only)", got)
	}
	if len(m.Metrics.Invals) != 1 || m.Metrics.Invals[0].Groups != 0 {
		t.Fatalf("inval record = %+v, want 0 groups", m.Metrics.Invals)
	}
}

func TestConcurrentWritersSameBlockSerialize(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIMAEC, grouping.MIMATM} {
		m := newM(t, 8, s)
		const b = 17
		for _, c := range []topology.Coord{{X: 1, Y: 5}, {X: 6, Y: 6}, {X: 4, Y: 0}} {
			doOp(t, m, false, m.Mesh.ID(c), b)
		}
		w1, w2 := nodeAt(m, 7, 7), nodeAt(m, 0, 0)
		done1, done2 := false, false
		m.Write(w1, b, func() { done1 = true })
		m.Write(w2, b, func() { done2 = true })
		m.Engine.Run()
		if !done1 || !done2 {
			t.Fatalf("%v: writes incomplete: %v %v", s, done1, done2)
		}
		if !m.Quiesced() {
			t.Fatalf("%v: network not quiesced", s)
		}
		e := m.DirEntry(b)
		if e.State != directory.Exclusive {
			t.Fatalf("%v: dir = %v, want exclusive", s, e.State)
		}
		// Exactly one of the writers lost its copy to the other's txn.
		owner := e.Owner
		if owner != w1 && owner != w2 {
			t.Fatalf("%v: owner = %d, want one of the writers", s, owner)
		}
		loser := w1
		if owner == w1 {
			loser = w2
		}
		if m.Cache(owner).State(b) != cache.ModifiedLine {
			t.Fatalf("%v: final owner line not modified", s)
		}
		if m.Cache(loser).State(b) == cache.ModifiedLine {
			t.Fatalf("%v: loser still modified", s)
		}
	}
}

func TestWritebackOnEviction(t *testing.T) {
	p := DefaultParams(4, grouping.UIUA)
	p.CacheLines = 1
	m := NewMachine(p)
	n := nodeAt(m, 2, 2)
	doOp(t, m, true, n, 3)
	doOp(t, m, true, n, 4) // evicts dirty block 3 -> writeback
	e := m.DirEntry(3)
	if e.State != directory.Uncached {
		t.Fatalf("evicted block dir = %v, want uncached", e.State)
	}
	if m.Cache(n).State(3) != cache.Invalid || m.Cache(n).State(4) != cache.ModifiedLine {
		t.Fatal("cache states after eviction wrong")
	}
}

func TestSchemesConvergeToSameFinalState(t *testing.T) {
	readers := []topology.Coord{{X: 1, Y: 1}, {X: 6, Y: 3}, {X: 3, Y: 7}, {X: 7, Y: 0}, {X: 2, Y: 5}, {X: 5, Y: 2}}
	writer := topology.Coord{X: 4, Y: 4}
	var owners []topology.NodeID
	for _, s := range grouping.AllSchemes {
		m, b := populateAndWrite(t, s, readers, writer)
		e := m.DirEntry(b)
		owners = append(owners, e.Owner)
		if e.State != directory.Exclusive {
			t.Fatalf("%v: final state %v", s, e.State)
		}
	}
	for i := 1; i < len(owners); i++ {
		if owners[i] != owners[0] {
			t.Fatal("schemes disagree on final owner")
		}
	}
}

func TestWriteLatencyOrderingAcrossSchemes(t *testing.T) {
	// The headline claim: with many sharers, MI-MA invalidation latency
	// beats MI-UA beats UI-UA.
	var readers []topology.Coord
	for _, c := range []topology.Coord{
		{X: 1, Y: 0}, {X: 1, Y: 7}, {X: 2, Y: 3}, {X: 3, Y: 5}, {X: 4, Y: 1},
		{X: 5, Y: 6}, {X: 6, Y: 2}, {X: 7, Y: 4}, {X: 2, Y: 6}, {X: 5, Y: 0},
		{X: 6, Y: 7}, {X: 3, Y: 2},
	} {
		readers = append(readers, c)
	}
	writer := topology.Coord{X: 0, Y: 3}
	lat := map[grouping.Scheme]float64{}
	msgs := map[grouping.Scheme]int{}
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC, grouping.MIMATM} {
		m, _ := populateAndWrite(t, s, readers, writer)
		lat[s] = float64(m.Metrics.Invals[0].Latency())
		msgs[s] = m.Metrics.Invals[0].HomeMsgs
	}
	// Latency: multidestination schemes strictly beat UI-UA; MI-MA is never
	// worse than MI-UA (at moderate d both share the last group's critical
	// path; MI-MA pulls ahead under load and larger d — see the benches).
	if !(lat[grouping.MIMAEC] <= lat[grouping.MIUAEC] && lat[grouping.MIUAEC] < lat[grouping.UIUA]) {
		t.Fatalf("latency ordering violated: UIUA=%v MIUA=%v MIMA=%v",
			lat[grouping.UIUA], lat[grouping.MIUAEC], lat[grouping.MIMAEC])
	}
	// Home occupancy (messages at home) must strictly improve at each step.
	if !(msgs[grouping.MIMAEC] < msgs[grouping.MIUAEC] && msgs[grouping.MIUAEC] < msgs[grouping.UIUA]) {
		t.Fatalf("home message ordering violated: UIUA=%d MIUA=%d MIMA=%d",
			msgs[grouping.UIUA], msgs[grouping.MIUAEC], msgs[grouping.MIMAEC])
	}
	if msgs[grouping.MIMATM] > msgs[grouping.MIMAEC] {
		t.Fatalf("turn-model home messages %d exceed e-cube %d",
			msgs[grouping.MIMATM], msgs[grouping.MIMAEC])
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, int) {
		m := newM(t, 8, grouping.MIMAECRC)
		const b = 17
		for _, c := range []topology.Coord{{X: 3, Y: 1}, {X: 3, Y: 6}, {X: 6, Y: 2}} {
			doOp(t, m, false, m.Mesh.ID(c), b)
		}
		doOp(t, m, true, nodeAt(m, 2, 2), b)
		return uint64(m.Engine.Now()), int(m.Net.Stats().FlitHops)
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", t1, f1, t2, f2)
	}
}

func TestDoubleOutstandingOpPanics(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	n := nodeAt(m, 2, 2)
	m.Read(n, 5, func() {})
	defer func() {
		if recover() == nil {
			t.Error("second outstanding op did not panic")
		}
	}()
	m.Read(n, 6, func() {})
	m.Engine.Run()
}

func TestOccupancyAccounting(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	n := nodeAt(m, 2, 2)
	doOp(t, m, false, n, 5)
	if m.Metrics.Occupancy[n] == 0 {
		t.Fatal("requester occupancy not accounted")
	}
	if m.Metrics.Occupancy[m.Home(5)] == 0 {
		t.Fatal("home occupancy not accounted")
	}
}

func TestVCTDeferredProtocolCompletes(t *testing.T) {
	p := DefaultParams(8, grouping.MIMAEC)
	p.Net.VCTDeferred = true
	m := NewMachine(p)
	const b = 17
	for _, c := range []topology.Coord{{X: 3, Y: 1}, {X: 3, Y: 4}, {X: 3, Y: 6}, {X: 5, Y: 2}} {
		doOp(t, m, false, m.Mesh.ID(c), b)
	}
	doOp(t, m, true, nodeAt(m, 0, 0), b)
	if len(m.Metrics.Invals) != 1 {
		t.Fatal("invalidation did not complete under VCT")
	}
}

func TestManyBlocksManyNodesSoak(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIMAEC, grouping.MIMATM, grouping.BR} {
		m := newM(t, 8, s)
		// Interleaved reads and writes across 16 blocks and all nodes.
		for round := 0; round < 3; round++ {
			for b := directory.BlockID(0); b < 16; b++ {
				reader := topology.NodeID((int(b)*7 + round*13) % m.Mesh.Nodes())
				doOp(t, m, false, reader, b)
			}
			for b := directory.BlockID(0); b < 16; b += 2 {
				writer := topology.NodeID((int(b)*11 + round*29) % m.Mesh.Nodes())
				doOp(t, m, true, writer, b)
			}
		}
		if !m.Quiesced() {
			t.Fatalf("%v: soak left traffic outstanding", s)
		}
	}
}

func TestAdaptiveSchemeEndToEnd(t *testing.T) {
	m := newM(t, 8, grouping.ADAPT)
	const b = 17
	for _, c := range []topology.Coord{{X: 3, Y: 3}, {X: 4, Y: 4}, {X: 5, Y: 5}, {X: 6, Y: 2}} {
		doOp(t, m, false, m.Mesh.ID(c), b)
	}
	doOp(t, m, true, nodeAt(m, 0, 0), b)
	if len(m.Metrics.Invals) != 1 {
		t.Fatal("adaptive scheme never completed a transaction")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRectangularMesh(t *testing.T) {
	p := DefaultParams(0, grouping.MIMAEC)
	p.MeshWidth, p.MeshHeight = 8, 4
	m := NewMachine(p)
	if m.Mesh.Width() != 8 || m.Mesh.Height() != 4 {
		t.Fatalf("mesh = %dx%d, want 8x4", m.Mesh.Width(), m.Mesh.Height())
	}
	const b = 17
	for _, c := range []topology.Coord{{X: 6, Y: 1}, {X: 6, Y: 3}, {X: 2, Y: 0}} {
		doOp(t, m, false, m.Mesh.ID(c), b)
	}
	doOp(t, m, true, nodeAt(m, 0, 2), b)
	if len(m.Metrics.Invals) != 1 {
		t.Fatal("rectangular mesh transaction failed")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTorusMachineEndToEnd(t *testing.T) {
	p := DefaultParams(8, grouping.MIMAEC)
	p.Torus = true
	m := NewMachine(p)
	if !m.Mesh.Wrap() {
		t.Fatal("machine mesh is not a torus")
	}
	const b = 17
	// Sharers straddling the home row in one column: one ring worm.
	for _, c := range []topology.Coord{{X: 5, Y: 1}, {X: 5, Y: 5}, {X: 5, Y: 7}} {
		doOp(t, m, false, m.Mesh.ID(c), b)
	}
	doOp(t, m, true, nodeAt(m, 0, 0), b)
	rec := m.Metrics.Invals[0]
	if rec.Groups != 1 {
		t.Fatalf("torus groups = %d, want 1 ring worm", rec.Groups)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTorusSoakWithInvariants(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIMAEC, grouping.MIMATM} {
		p := DefaultParams(4, s)
		p.Torus = true
		m := NewMachine(p)
		rng := newRNG()
		for step := 0; step < 100; step++ {
			n := topology.NodeID(rng.Intn(m.Mesh.Nodes()))
			b := blockID(rng.Intn(8))
			doOp(t, m, rng.Intn(3) == 0, n, b)
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("%v step %d: %v", s, step, err)
			}
		}
	}
}

func TestReplyForwardingThreeHopDirtyRead(t *testing.T) {
	run := func(threeHop bool) (uint64, *Machine) {
		p := DefaultParams(8, grouping.UIUA)
		p.ReplyForwarding = threeHop
		m := NewMachine(p)
		owner := nodeAt(m, 7, 7)
		reader := nodeAt(m, 0, 0)
		const b = 17 // homed at (1,2): requester, owner and home distinct
		doOp(t, m, true, owner, b)
		doOp(t, m, false, reader, b)
		// Requester-visible miss latency (the sharing writeback retires in
		// the background under 3-hop).
		return uint64(m.Metrics.ReadMiss.Max()), m
	}
	fourHop, m4 := run(false)
	threeHop, m3 := run(true)
	if threeHop >= fourHop {
		t.Fatalf("3-hop dirty read %d not faster than 4-hop %d", threeHop, fourHop)
	}
	for _, m := range []*Machine{m3, m4} {
		e := m.DirEntry(17)
		if e.State != directory.Shared || e.Sharers.Count() != 2 {
			t.Fatalf("post-read dir state %v sharers %d", e.State, e.Sharers.Count())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplyForwardingSoak(t *testing.T) {
	p := DefaultParams(4, grouping.MIMAEC)
	p.ReplyForwarding = true
	p.CacheLines = 6
	m := NewMachine(p)
	rng := newRNG()
	for step := 0; step < 150; step++ {
		n := topology.NodeID(rng.Intn(m.Mesh.Nodes()))
		b := blockID(rng.Intn(10))
		doOp(t, m, rng.Intn(3) == 0, n, b)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

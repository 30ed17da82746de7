package coherence

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestInstallSharerWritesReadMissState(t *testing.T) {
	m := newM(t, 4, grouping.MIMAEC)
	const b = 5
	home := m.Home(b)
	for _, n := range []int{2, 9, int(home)} {
		if !m.InstallSharer(topology.NodeID(n), b) {
			t.Fatalf("InstallSharer(%d) fell back on a plain machine", n)
		}
		if e := m.DirEntry(b); e.State != directory.Shared || !e.Sharers.Has(topology.NodeID(n)) {
			t.Fatalf("after install of %d: dir = %v sharers %v", n, e.State, e.Sharers.AppendNodes(nil))
		}
		if m.Cache(topology.NodeID(n)).State(b) != cache.SharedLine {
			t.Fatalf("node %d does not hold the line", n)
		}
	}
	if m.Engine.Fired() != 0 || m.Engine.Now() != 0 || m.Net.Stats().Injected != 0 {
		t.Fatalf("install simulated something: %d events, clock %d, %d worms",
			m.Engine.Fired(), m.Engine.Now(), m.Net.Stats().Injected)
	}
	if m.Metrics.ReadMiss.N() != 0 || m.Metrics.MsgsSent[home] != 0 || m.Metrics.Occupancy[home] != 0 {
		t.Fatal("install touched the collector")
	}
	// The installed copies are real: a write invalidates all three.
	doOp(t, m, true, nodeAt(m, 3, 3), b)
	if rec := m.Metrics.Invals[0]; rec.Sharers != 2 {
		t.Fatalf("write invalidated %d remote sharers, want 2 (plus the home's copy)", rec.Sharers)
	}
	for _, n := range []int{2, 9, int(home)} {
		if m.Cache(topology.NodeID(n)).State(b) != cache.Invalid {
			t.Fatalf("node %d kept its copy through the write", n)
		}
	}
}

func TestInstallSharerAgainIsNoOp(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	const b = 5
	for _, n := range []int{1, 2, 3} {
		m.InstallSharer(topology.NodeID(n), b)
	}
	before := m.DirEntry(b).Sharers.AppendNodes(nil)
	if !m.InstallSharer(2, b) {
		t.Fatal("re-install returned false")
	}
	e := m.DirEntry(b)
	if e.State != directory.Shared || !slices.Equal(e.Sharers.AppendNodes(nil), before) {
		t.Fatalf("re-install changed the entry: %v sharers %v, want %v", e.State, e.Sharers.AppendNodes(nil), before)
	}
	if m.Cache(2).State(b) != cache.SharedLine {
		t.Fatal("re-install dropped the line")
	}
}

func TestInstallSharerPreconditionsPanic(t *testing.T) {
	const b = 5
	m := newM(t, 4, grouping.UIUA)
	m.Engine.AfterCall(10, sim.CallFunc, func() {}, 0)
	mustPanic(t, "InstallSharer with a pending event", func() { m.InstallSharer(1, b) })

	m = newM(t, 4, grouping.UIUA)
	m.Read(1, b, func() {})
	for m.Quiesced() {
		m.Engine.Step()
	}
	mustPanic(t, "InstallSharer with a worm in flight", func() { m.InstallSharer(2, b) })

	m = newM(t, 4, grouping.UIUA)
	m.addOp(1, &pendingOp{block: b})
	mustPanic(t, "InstallSharer with an operation outstanding at n", func() { m.InstallSharer(1, b) })

	m = newM(t, 4, grouping.UIUA)
	doOp(t, m, true, 1, b)
	mustPanic(t, "InstallSharer on an Exclusive entry", func() { m.InstallSharer(2, b) })

	m = newM(t, 4, grouping.UIUA)
	m.DirEntry(b).State = directory.Waiting
	mustPanic(t, "InstallSharer on a Waiting entry", func() { m.InstallSharer(2, b) })
}

func TestInstallSharerFallsBackWhenObservable(t *testing.T) {
	const b = 5
	cases := []struct {
		name  string
		build func() *Machine
	}{
		{"fault injector", func() *Machine {
			p := DefaultParams(4, grouping.MIMAEC)
			p.Recovery = DefaultRecovery()
			p.Fault = faults.New(faults.Config{Seed: 3, DropRate: 0.1})
			return NewMachine(p)
		}},
		{"chaos ordering", func() *Machine {
			m := newM(t, 4, grouping.MIMAEC)
			m.Engine.Chaos(7)
			return m
		}},
		{"trace recorder", func() *Machine {
			m := newM(t, 4, grouping.MIMAEC)
			m.AttachTrace(trace.NewRecorder(64))
			return m
		}},
	}
	for _, tc := range cases {
		m := tc.build()
		if m.InstallSharer(2, b) {
			t.Fatalf("%s: InstallSharer took the fast path", tc.name)
		}
		if blocks := m.dirs[m.Home(b)].Blocks(); blocks != 0 {
			t.Fatalf("%s: fallback materialized %d directory entries", tc.name, blocks)
		}
		if m.Cache(2).State(b) != cache.Invalid {
			t.Fatalf("%s: fallback touched the cache", tc.name)
		}
		// The simulated read the caller falls back to still works.
		doOp(t, m, false, 2, b)
		if !m.DirEntry(b).Sharers.Has(2) {
			t.Fatalf("%s: simulated read did not install the sharer", tc.name)
		}
	}
}

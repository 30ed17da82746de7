package coherence

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newRCMachine(t *testing.T, k int, s grouping.Scheme) *Machine {
	t.Helper()
	p := DefaultParams(k, s)
	p.Consistency = ReleaseConsistency
	return NewMachine(p)
}

func TestWriteAsyncReturnsBeforeGrant(t *testing.T) {
	m := newRCMachine(t, 8, grouping.UIUA)
	// Populate sharers so the write triggers a real invalidation txn.
	const b = 17
	for _, c := range []topology.Coord{{X: 3, Y: 1}, {X: 3, Y: 6}, {X: 6, Y: 2}} {
		doOp(t, m, false, m.Mesh.ID(c), b)
	}
	writer := nodeAt(m, 7, 7)
	issuedAt := sim0()
	m.WriteAsync(writer, b, func() { issuedAt = uint64(m.Engine.Now()) })
	// Drive only a little: the issue callback must fire long before the
	// invalidation transaction ends.
	m.Engine.RunUntil(m.Engine.Now() + 20)
	if issuedAt == 0 {
		t.Fatal("WriteAsync did not issue within the store-buffer window")
	}
	if len(m.Metrics.Invals) != 0 {
		t.Fatal("invalidation finished suspiciously fast")
	}
	m.Engine.Run()
	if len(m.Metrics.Invals) != 1 {
		t.Fatal("invalidation transaction never completed")
	}
	if m.Cache(writer).State(b) != cache.ModifiedLine {
		t.Fatal("writer line not modified after background grant")
	}
}

func sim0() uint64 { return 0 }

func TestFenceWaitsForBufferedWrites(t *testing.T) {
	m := newRCMachine(t, 8, grouping.MIMAEC)
	const b = 17
	for _, c := range []topology.Coord{{X: 3, Y: 1}, {X: 3, Y: 6}} {
		doOp(t, m, false, m.Mesh.ID(c), b)
	}
	writer := nodeAt(m, 7, 7)
	issued, fenced := false, false
	m.WriteAsync(writer, b, func() { issued = true })
	m.Fence(writer, func() { fenced = true })
	if fenced {
		t.Fatal("Fence completed before the write was granted")
	}
	m.Engine.Run()
	if !issued || !fenced {
		t.Fatalf("issued=%v fenced=%v after run", issued, fenced)
	}
	e := m.DirEntry(b)
	if e.State != directory.Exclusive || e.Owner != writer {
		t.Fatal("write did not complete behind the fence")
	}
}

func TestFenceWithEmptyBufferImmediate(t *testing.T) {
	m := newRCMachine(t, 4, grouping.UIUA)
	done := false
	m.Fence(nodeAt(m, 1, 1), func() { done = true })
	if !done {
		t.Fatal("Fence with no pending writes should complete inline")
	}
}

func TestRCMultipleBufferedWrites(t *testing.T) {
	m := newRCMachine(t, 8, grouping.UIUA)
	writer := nodeAt(m, 0, 0)
	count := 0
	for b := directory.BlockID(10); b < 16; b++ {
		m.WriteAsync(writer, b, func() { count++ })
	}
	fenced := false
	m.Engine.AfterCall(1, sim.CallFunc, func() { m.Fence(writer, func() { fenced = true }) }, 0)
	m.Engine.Run()
	if count != 6 {
		t.Fatalf("issued %d writes, want 6", count)
	}
	if !fenced {
		t.Fatal("fence never completed")
	}
	for b := directory.BlockID(10); b < 16; b++ {
		if m.Cache(writer).State(b) != cache.ModifiedLine {
			t.Fatalf("block %d not owned after fence", b)
		}
	}
	if !m.Quiesced() {
		t.Fatal("traffic outstanding")
	}
}

func TestRCStoreBufferReadForwarding(t *testing.T) {
	m := newRCMachine(t, 8, grouping.UIUA)
	// Another node shares the block so the write stays in flight a while.
	const b = 17
	doOp(t, m, false, nodeAt(m, 3, 3), b)
	writer := nodeAt(m, 7, 7)
	m.WriteAsync(writer, b, func() {})
	readDone := false
	m.Read(writer, b, func() { readDone = true })
	m.Engine.RunUntil(m.Engine.Now() + 10)
	if !readDone {
		t.Fatal("read of own buffered write not forwarded from the store buffer")
	}
	m.Engine.Run()
}

func TestRCWriteCoalescing(t *testing.T) {
	m := newRCMachine(t, 8, grouping.UIUA)
	doOp(t, m, false, nodeAt(m, 3, 3), 17)
	writer := nodeAt(m, 7, 7)
	issued := 0
	m.WriteAsync(writer, 17, func() { issued++ })
	m.WriteAsync(writer, 17, func() { issued++ })
	m.Engine.Run()
	if issued != 2 {
		t.Fatalf("issued = %d, want 2 (second write coalesces)", issued)
	}
	if got := m.pendingWrites(writer).count; got != 0 {
		t.Fatalf("pending writes = %d after run", got)
	}
	if !m.Quiesced() {
		t.Fatal("traffic outstanding")
	}
}

func TestWriteAsyncUnderSCPanics(t *testing.T) {
	m := newM(t, 4, grouping.UIUA)
	defer func() {
		if recover() == nil {
			t.Error("WriteAsync under SC did not panic")
		}
	}()
	m.WriteAsync(nodeAt(m, 0, 0), 1, func() {})
}

func TestRCFinalStateMatchesSC(t *testing.T) {
	run := func(consistency Consistency) (topology.NodeID, int) {
		p := DefaultParams(8, grouping.MIMAEC)
		p.Consistency = consistency
		m := NewMachine(p)
		const b = 17
		for _, c := range []topology.Coord{{X: 3, Y: 1}, {X: 3, Y: 6}, {X: 6, Y: 2}} {
			doOp(t, m, false, m.Mesh.ID(c), b)
		}
		w := nodeAt(m, 7, 7)
		if consistency == ReleaseConsistency {
			m.WriteAsync(w, b, func() {})
			m.Fence(w, func() {})
		} else {
			m.Write(w, b, func() {})
		}
		m.Engine.Run()
		return m.DirEntry(b).Owner, len(m.Metrics.Invals)
	}
	scOwner, scInvals := run(SequentialConsistency)
	rcOwner, rcInvals := run(ReleaseConsistency)
	if scOwner != rcOwner || scInvals != rcInvals {
		t.Fatalf("SC (%d,%d) and RC (%d,%d) diverge", scOwner, scInvals, rcOwner, rcInvals)
	}
}

func TestConsistencyString(t *testing.T) {
	if SequentialConsistency.String() != "SC" || ReleaseConsistency.String() != "RC" {
		t.Error("consistency names wrong")
	}
}

// TestReleaseConsistencyUnderFaultsRefused: NewMachine refuses release
// consistency together with a fault injector, naming both fields, since no
// checker covers store buffers and fences on a faulty fabric.
func TestReleaseConsistencyUnderFaultsRefused(t *testing.T) {
	p := DefaultParams(4, grouping.MIMAEC)
	p.Consistency = ReleaseConsistency
	p.Fault = faults.New(faults.Config{Seed: 1, DropRate: 0.1})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Consistency") || !strings.Contains(msg, "Fault") {
			t.Fatalf("NewMachine(RC, Fault) panicked with %q; want a refusal naming Consistency and Fault", msg)
		}
	}()
	NewMachine(p)
}

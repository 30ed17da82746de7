package workload

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestPatternJSONAcceptsNames: a placement decodes from its name or its
// integer, encodes as the integer, and an unknown name fails with
// ParsePattern's error.
func TestPatternJSONAcceptsNames(t *testing.T) {
	for p := RandomPlacement; p <= DiagonalPlacement; p++ {
		enc, err := json.Marshal(p)
		if err != nil || string(enc) != strconv.Itoa(int(p)) {
			t.Fatalf("Marshal(%v) = %s, %v; want the integer", p, enc, err)
		}
		for _, in := range []string{strconv.Quote(p.String()), string(enc)} {
			var got Pattern
			if err := json.Unmarshal([]byte(in), &got); err != nil || got != p {
				t.Fatalf("Unmarshal(%s) = %v, %v; want %v", in, got, err, p)
			}
		}
	}
	_, want := ParsePattern("diagonals")
	var got Pattern
	if err := json.Unmarshal([]byte(`"diagonals"`), &got); err == nil || err.Error() != want.Error() {
		t.Fatalf("Unmarshal of an unknown name: %v, want %v", err, want)
	}
}

func TestRunInvalBasic(t *testing.T) {
	res := RunInval(InvalConfig{K: 8, Scheme: grouping.UIUA, D: 4, Trials: 3})
	if res.Latency.N() != 3 {
		t.Fatalf("trials recorded = %d, want 3", res.Latency.N())
	}
	if res.Latency.Mean() <= 0 {
		t.Fatal("zero invalidation latency")
	}
	// UIUA: 2 messages per sharer at the home.
	if res.HomeMsgs != 8 {
		t.Fatalf("HomeMsgs = %v, want 8", res.HomeMsgs)
	}
	if res.Groups != 4 {
		t.Fatalf("Groups = %v, want 4", res.Groups)
	}
}

func TestRunInvalSchemeOrderingAtLargeD(t *testing.T) {
	// d=24 on a 16x16 mesh: the paper's headline shape. Home messages must
	// fall strictly UIUA > MIUA > MIMA, and MI-MA latency must beat UI-UA
	// by a clear margin.
	results := map[grouping.Scheme]InvalResult{}
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC, grouping.MIMATM} {
		results[s] = RunInval(InvalConfig{K: 16, Scheme: s, D: 24, Trials: 5})
	}
	ui, miua, mima, mimatm := results[grouping.UIUA], results[grouping.MIUAEC], results[grouping.MIMAEC], results[grouping.MIMATM]
	if !(mima.HomeMsgs < miua.HomeMsgs && miua.HomeMsgs < ui.HomeMsgs) {
		t.Fatalf("home msgs ordering: ui=%v miua=%v mima=%v", ui.HomeMsgs, miua.HomeMsgs, mima.HomeMsgs)
	}
	if !(mima.Latency.Mean() < ui.Latency.Mean()) {
		t.Fatalf("MI-MA latency %v not better than UI-UA %v", mima.Latency.Mean(), ui.Latency.Mean())
	}
	if !(mimatm.Groups < mima.Groups) {
		t.Fatalf("turn-model groups %v not fewer than e-cube %v", mimatm.Groups, mima.Groups)
	}
	if mimatm.HomeMsgs > 8 {
		t.Fatalf("turn-model home msgs = %v, want <= 8 (bounded groups)", mimatm.HomeMsgs)
	}
}

func TestRunInvalPlacements(t *testing.T) {
	for _, pat := range []Pattern{RandomPlacement, ClusteredPlacement, ColumnPlacement, RowPlacement, DiagonalPlacement} {
		res := RunInval(InvalConfig{K: 8, Scheme: grouping.MIMAEC, D: 6, Pattern: pat, Trials: 2})
		if res.Latency.N() != 2 {
			t.Fatalf("%v: trials = %d", pat, res.Latency.N())
		}
	}
}

func TestColumnPlacementFavorsColumnGrouping(t *testing.T) {
	col := RunInval(InvalConfig{K: 8, Scheme: grouping.MIMAEC, D: 7, Pattern: ColumnPlacement, Trials: 3})
	row := RunInval(InvalConfig{K: 8, Scheme: grouping.MIMAEC, D: 7, Pattern: RowPlacement, Trials: 3})
	if col.Groups >= row.Groups {
		t.Fatalf("column placement groups %v should be fewer than row placement %v", col.Groups, row.Groups)
	}
}

func TestPlaceSharersProperties(t *testing.T) {
	mesh := topology.NewSquareMesh(8)
	rng := newTestRNG()
	home := mesh.ID(topology.Coord{X: 4, Y: 4})
	for _, pat := range []Pattern{RandomPlacement, ClusteredPlacement, ColumnPlacement, RowPlacement, DiagonalPlacement} {
		for _, d := range []int{1, 5, 20} {
			sharers := PlaceSharers(mesh, rng, home, d, pat)
			if len(sharers) != d {
				t.Fatalf("%v d=%d: got %d sharers", pat, d, len(sharers))
			}
			seen := map[topology.NodeID]bool{}
			for _, s := range sharers {
				if s == home {
					t.Fatalf("%v: home placed as sharer", pat)
				}
				if seen[s] {
					t.Fatalf("%v: duplicate sharer", pat)
				}
				seen[s] = true
			}
		}
	}
}

func TestClusteredPlacementIsNearest(t *testing.T) {
	mesh := topology.NewSquareMesh(8)
	home := mesh.ID(topology.Coord{X: 4, Y: 4})
	sharers := PlaceSharers(mesh, newTestRNG(), home, 4, ClusteredPlacement)
	for _, s := range sharers {
		if mesh.Distance(home, s) != 1 {
			t.Fatalf("clustered d=4 includes non-neighbor %v", mesh.Coord(s))
		}
	}
}

func TestRunInvalDOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range D did not panic")
		}
	}()
	RunInval(InvalConfig{K: 4, Scheme: grouping.UIUA, D: 15})
}

func TestMeasureMissOrderings(t *testing.T) {
	p := DefaultMicroParams(grouping.UIUA)
	lat := map[MissKind]uint64{}
	for _, k := range AllMissKinds {
		v := MeasureMiss(p, k)
		if v == 0 {
			t.Fatalf("%v: zero latency", k)
		}
		lat[k] = uint64(v)
	}
	// Sanity orderings a real memory system obeys.
	if !(lat[ReadHit] < lat[ReadMissLocal]) {
		t.Fatalf("hit %d not faster than local miss %d", lat[ReadHit], lat[ReadMissLocal])
	}
	if !(lat[ReadMissNeighborClean] < lat[ReadMissRemoteClean]) {
		t.Fatalf("neighbor miss %d not faster than remote miss %d",
			lat[ReadMissNeighborClean], lat[ReadMissRemoteClean])
	}
	if !(lat[ReadMissRemoteClean] < lat[ReadMissRemoteDirty]) {
		t.Fatalf("clean miss %d not faster than dirty miss %d",
			lat[ReadMissRemoteClean], lat[ReadMissRemoteDirty])
	}
	if !(lat[UpgradeNoSharers] < lat[WriteMissSharers4]) {
		t.Fatalf("upgrade %d not faster than 4-sharer write %d",
			lat[UpgradeNoSharers], lat[WriteMissSharers4])
	}
	if !(lat[ReadHit] <= 4) {
		t.Fatalf("read hit = %d cycles, want <= 4", lat[ReadHit])
	}
}

// TestOpLatencyRefusesUnfinishedOp: an operation issued at cycle 0 that
// never completes, because an event at cycle 0 halts the engine first, must
// panic naming the operation instead of measuring 0 cycles.
func TestOpLatencyRefusesUnfinishedOp(t *testing.T) {
	m := coherence.NewMachine(DefaultMicroParams(grouping.UIUA))
	m.Engine.AtCall(0, func(any, int32) { m.Engine.Halt() }, nil, 0)
	n, b := m.Mesh.ID(topology.Coord{X: 1, Y: 1}), directory.BlockID(70)
	defer func() {
		msg, _ := recover().(string)
		want := fmt.Sprintf("did not complete (deadlock? write=false node=%d block=%d)", n, b)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name the unfinished read (%s)", msg, want)
		}
	}()
	lat := newOpRunner(m).latency(false, n, b)
	t.Fatalf("the unfinished read measured %d cycles", lat)
}

func TestReadMissBreakdownSumsToMeasured(t *testing.T) {
	p := DefaultMicroParams(grouping.UIUA)
	rows, total := ReadMissBreakdown(p)
	if len(rows) != 7 {
		t.Fatalf("breakdown rows = %d, want 7", len(rows))
	}
	measured := MeasureMiss(p, ReadMissNeighborClean)
	if total != measured {
		t.Fatalf("breakdown sum %d != measured %d", total, measured)
	}

	// Golden cross-check: the trace-derived critical path of the same miss
	// must reproduce the hand-derived Table 5 components cycle-for-cycle —
	// the analyzer walking real recorded events has to land on exactly the
	// numbers the analytic model predicts, component by component.
	rec := trace.NewRecorder(4096)
	traced := MeasureMissTraced(p, ReadMissNeighborClean, rec)
	if traced != measured {
		t.Fatalf("traced run measured %d cycles, untraced %d", traced, measured)
	}
	a := trace.Analyze(rec.Events())
	if len(a.Ops) != 1 {
		t.Fatalf("analyzer found %d ops, want 1", len(a.Ops))
	}
	op := a.Ops[0]
	if !op.Resolved {
		t.Fatalf("critical path unresolved: %+v", op.Segments)
	}
	if op.Latency() != measured {
		t.Fatalf("trace latency %d != measured %d", op.Latency(), measured)
	}
	if len(op.Segments) != len(rows) {
		t.Fatalf("trace segments = %d, hand-derived rows = %d (%+v)",
			len(op.Segments), len(rows), op.Segments)
	}
	for i, row := range rows {
		if got := op.Segments[i].Cycles(); got != row.Cycles {
			t.Errorf("component %d: trace %q = %d cycles, hand-derived %q = %d",
				i, op.Segments[i].Component, got, row.Component, row.Cycles)
		}
	}
	if op.Sum() != op.Latency() {
		t.Fatalf("attribution sum %d != latency %d", op.Sum(), op.Latency())
	}
}

func TestHotSpotScalesWithWriters(t *testing.T) {
	one := RunHotSpot(HotSpotConfig{K: 8, Scheme: grouping.UIUA, D: 6, Writers: 1})
	four := RunHotSpot(HotSpotConfig{K: 8, Scheme: grouping.UIUA, D: 6, Writers: 4})
	if one.Latency.N() != 1 || four.Latency.N() != 4 {
		t.Fatalf("latency samples: %d, %d", one.Latency.N(), four.Latency.N())
	}
	if four.Makespan <= one.Makespan {
		t.Fatalf("4-writer makespan %d not longer than 1-writer %d", four.Makespan, one.Makespan)
	}
	if four.HomeOccupancy <= one.HomeOccupancy {
		t.Fatal("home occupancy did not grow with writers")
	}
}

func TestHotSpotMIMARelievesHome(t *testing.T) {
	ui := RunHotSpot(HotSpotConfig{K: 8, Scheme: grouping.UIUA, D: 8, Writers: 4})
	mima := RunHotSpot(HotSpotConfig{K: 8, Scheme: grouping.MIMAEC, D: 8, Writers: 4})
	if mima.HomeOccupancy >= ui.HomeOccupancy {
		t.Fatalf("MI-MA home occupancy %d not below UI-UA %d", mima.HomeOccupancy, ui.HomeOccupancy)
	}
	if mima.Makespan >= ui.Makespan {
		t.Fatalf("MI-MA makespan %d not below UI-UA %d", mima.Makespan, ui.Makespan)
	}
}

func TestHotSpotAllSchemesComplete(t *testing.T) {
	for _, s := range grouping.AllSchemes {
		res := RunHotSpot(HotSpotConfig{K: 8, Scheme: s, D: 5, Writers: 3})
		if res.Latency.N() != 3 {
			t.Fatalf("%v: %d transactions completed, want 3", s, res.Latency.N())
		}
	}
}

func TestHotSpotVCTWithTinyBuffers(t *testing.T) {
	// One i-ack buffer per interface with concurrent MI-MA transactions:
	// VCT deferred delivery must still drain everything.
	res := RunHotSpot(HotSpotConfig{
		K: 8, Scheme: grouping.MIMAEC, D: 6, Writers: 4,
		Tune: &coherence.Variant{IAckBuffers: 1, VCTDeferred: true},
	})
	if res.Latency.N() != 4 {
		t.Fatalf("completed %d transactions, want 4", res.Latency.N())
	}
}

func newTestRNG() *sim.RNG { return sim.NewRNG(42) }

func TestDiagonalPlacementFavorsPlanarAdaptive(t *testing.T) {
	pa := RunInval(InvalConfig{K: 16, Scheme: grouping.MIMAPA, D: 7, Pattern: DiagonalPlacement, Trials: 2})
	ec := RunInval(InvalConfig{K: 16, Scheme: grouping.MIMAEC, D: 7, Pattern: DiagonalPlacement, Trials: 2})
	if pa.Groups != 1 {
		t.Fatalf("planar-adaptive diagonal groups = %v, want 1", pa.Groups)
	}
	if ec.Groups != 7 {
		t.Fatalf("ecube diagonal groups = %v, want 7", ec.Groups)
	}
	if pa.HomeMsgs >= ec.HomeMsgs {
		t.Fatalf("PA home msgs %v not below ecube %v on diagonal", pa.HomeMsgs, ec.HomeMsgs)
	}
}

// TestRunOpReadWrite: RunOp drives a read miss and then the write that
// invalidates it to completion, returning nonzero cycle counts and leaving
// the block exclusive at the writer after one invalidation transaction.
func TestRunOpReadWrite(t *testing.T) {
	m := coherence.NewMachine(coherence.DefaultParams(8, grouping.MIMAEC))
	const b = 42
	if cycles := RunOp(m, false, m.Mesh.ID(topology.Coord{X: 3, Y: 3}), b); cycles == 0 {
		t.Fatal("zero read latency")
	}
	writer := m.Mesh.ID(topology.Coord{X: 6, Y: 1})
	if cycles := RunOp(m, true, writer, b); cycles == 0 {
		t.Fatal("zero write latency")
	}
	if e := m.DirEntry(b); e.State != directory.Exclusive || e.Owner != writer {
		t.Fatalf("dir = %v owner %d, want exclusive at %d", e.State, e.Owner, writer)
	}
	if len(m.Metrics.Invals) != 1 {
		t.Fatalf("inval transactions = %d, want 1", len(m.Metrics.Invals))
	}
}

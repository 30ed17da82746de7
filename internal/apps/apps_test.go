package apps

import (
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/grouping"
)

func smallBarnes() Workload {
	return BarnesHut(BarnesConfig{Bodies: 32, Steps: 2, Procs: 8})
}

func smallLU() Workload {
	return LU(LUConfig{N: 32, BlockSize: 8, Procs: 4, LinesPerBlock: 1})
}

func smallAPSP() Workload {
	return APSP(APSPConfig{Vertices: 16, Procs: 4, LinesPerRow: 1})
}

func TestWorkloadShapes(t *testing.T) {
	cases := []struct {
		w     Workload
		procs int
	}{
		{smallBarnes(), 8},
		{smallLU(), 4},
		{smallAPSP(), 4},
	}
	for _, tc := range cases {
		if len(tc.w.Programs) != tc.procs {
			t.Fatalf("%s: %d programs, want %d", tc.w.Name, len(tc.w.Programs), tc.procs)
		}
		st := tc.w.Stats()
		if st.Reads == 0 || st.Writes == 0 || st.Barriers == 0 {
			t.Fatalf("%s: degenerate stats %+v", tc.w.Name, st)
		}
		// Every program has the same number of barriers (they must match).
		barriers := -1
		for p, prog := range tc.w.Programs {
			n := 0
			for _, op := range prog {
				if op.Kind == OpBarrier {
					n++
				}
			}
			if barriers == -1 {
				barriers = n
			} else if n != barriers {
				t.Fatalf("%s: proc %d has %d barriers, others %d", tc.w.Name, p, n, barriers)
			}
		}
		if tc.w.SharedBlocks <= 0 {
			t.Fatalf("%s: no shared blocks", tc.w.Name)
		}
	}
}

func TestWorkloadGenerationDeterministic(t *testing.T) {
	a, b := smallBarnes(), smallBarnes()
	if len(a.Programs) != len(b.Programs) {
		t.Fatal("program count differs")
	}
	for p := range a.Programs {
		if len(a.Programs[p]) != len(b.Programs[p]) {
			t.Fatalf("proc %d trace length differs", p)
		}
		for i := range a.Programs[p] {
			if a.Programs[p][i] != b.Programs[p][i] {
				t.Fatalf("proc %d op %d differs", p, i)
			}
		}
	}
}

func runApp(t *testing.T, w Workload, scheme grouping.Scheme, k int) RunResult {
	t.Helper()
	m := coherence.NewMachine(coherence.DefaultParams(k, scheme))
	res := Run(m, w)
	if res.Time == 0 {
		t.Fatalf("%s: zero execution time", w.Name)
	}
	if !m.Quiesced() {
		t.Fatalf("%s: traffic outstanding after run", w.Name)
	}
	return res
}

func TestBarnesRuns(t *testing.T) {
	res := runApp(t, smallBarnes(), grouping.UIUA, 4)
	if res.Invals == 0 {
		t.Fatal("Barnes-Hut produced no invalidation transactions")
	}
	// The tree builder (proc 0) reads every body; body writes must
	// invalidate it plus force-phase readers.
	if res.AvgSharers < 1 {
		t.Fatalf("avg sharers = %v", res.AvgSharers)
	}
}

func TestLURuns(t *testing.T) {
	res := runApp(t, smallLU(), grouping.UIUA, 4)
	if res.Invals == 0 {
		t.Fatal("LU produced no invalidation transactions")
	}
}

func TestAPSPRuns(t *testing.T) {
	res := runApp(t, smallAPSP(), grouping.UIUA, 4)
	if res.Invals == 0 {
		t.Fatal("APSP produced no invalidation transactions")
	}
	// Pivot-row broadcast: some invalidation must hit ~all processors.
	if res.MaxSharers < 3 {
		t.Fatalf("APSP max sharers = %d, want >= 3 (pivot broadcast)", res.MaxSharers)
	}
}

func TestAPSPSharingExceedsLU(t *testing.T) {
	apsp := runApp(t, smallAPSP(), grouping.UIUA, 4)
	lu := runApp(t, smallLU(), grouping.UIUA, 4)
	if apsp.AvgSharers <= lu.AvgSharers {
		t.Fatalf("APSP avg sharers %v not above LU %v", apsp.AvgSharers, lu.AvgSharers)
	}
}

func TestSchemesAgreeOnWorkAmount(t *testing.T) {
	// The invalidation transaction count is a workload property, not a
	// scheme property — up to request serialization order at the home.
	// Whether a reader's request arrives just before a racing write
	// (joining its sharer set, ending uncached, re-missing later) or
	// queues just behind it (served afresh afterward, hitting later)
	// depends on network timing, which the scheme shapes; no correct
	// protocol can hide that fork. Exact cross-scheme equality only held
	// while raced fills installed untracked stale copies — a safety bug
	// the model checker rejects — so the counts are pinned to a tight
	// band rather than to equality.
	const tolerance = 2
	w := smallAPSP()
	base := runApp(t, w, grouping.UIUA, 4)
	for _, s := range []grouping.Scheme{grouping.MIUAEC, grouping.MIMAEC, grouping.MIMATM} {
		res := runApp(t, w, s, 4)
		if d := res.Invals - base.Invals; d < -tolerance || d > tolerance {
			t.Fatalf("%v: %d invals, UIUA had %d (tolerance %d)",
				s, res.Invals, base.Invals, tolerance)
		}
	}
}

func TestMIMANotSlowerOnAPSP(t *testing.T) {
	w := smallAPSP()
	ui := runApp(t, w, grouping.UIUA, 4)
	mima := runApp(t, w, grouping.MIMAEC, 4)
	if mima.Time > ui.Time {
		t.Fatalf("MI-MA time %d exceeds UI-UA %d on broadcast-heavy APSP", mima.Time, ui.Time)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallLU()
	a := runApp(t, w, grouping.MIMAEC, 4)
	b := runApp(t, w, grouping.MIMAEC, 4)
	if a.Time != b.Time || a.Invals != b.Invals {
		t.Fatalf("nondeterministic app run: %+v vs %+v", a, b)
	}
}

func TestTooManyProgramsPanics(t *testing.T) {
	m := coherence.NewMachine(coherence.DefaultParams(2, grouping.UIUA))
	w := Workload{Name: "big", Programs: make([]Program, 5)}
	defer func() {
		if recover() == nil {
			t.Error("oversized workload did not panic")
		}
	}()
	Run(m, w)
}

func TestBarrierReleasesTogether(t *testing.T) {
	// Two processors, second arrives late: both resume after the barrier
	// cost from the second arrival.
	m := coherence.NewMachine(coherence.DefaultParams(2, grouping.UIUA))
	w := Workload{
		Name: "barrier-test",
		Programs: []Program{
			{{Kind: OpBarrier}},
			{{Kind: OpCompute, Cycles: 500}, {Kind: OpBarrier}},
		},
		BarrierCost: 100,
	}
	res := Run(m, w)
	if res.Time != 600 {
		t.Fatalf("barrier run time = %d, want 600", res.Time)
	}
}

func TestPaperSizedWorkloadsGenerate(t *testing.T) {
	// The paper's actual configurations must generate without pathology
	// (they are exercised end-to-end by the benches).
	bh := BarnesHut(BarnesConfig{})
	lu := LU(LUConfig{})
	ap := APSP(APSPConfig{})
	for _, w := range []Workload{bh, lu, ap} {
		st := w.Stats()
		if st.Reads < 1000 {
			t.Fatalf("%s: suspiciously few reads (%d)", w.Name, st.Reads)
		}
		if len(w.Programs) != 16 {
			t.Fatalf("%s: %d procs, want 16", w.Name, len(w.Programs))
		}
	}
}

func TestReleaseConsistencyFasterThanSC(t *testing.T) {
	w := smallAPSP()
	run := func(c coherence.Consistency) RunResult {
		p := coherence.DefaultParams(4, grouping.UIUA)
		p.Consistency = c
		m := coherence.NewMachine(p)
		res := Run(m, w)
		if !m.Quiesced() {
			t.Fatalf("%v: traffic outstanding", c)
		}
		return res
	}
	sc := run(coherence.SequentialConsistency)
	rc := run(coherence.ReleaseConsistency)
	if rc.Time >= sc.Time {
		t.Fatalf("RC time %d not below SC time %d", rc.Time, sc.Time)
	}
	// Same workload, so the invalidation work matches up to the
	// request-serialization races at the home (see
	// TestSchemesAgreeOnWorkAmount): RC's overlapped writes shift request
	// timing, which can flip whether a racing reader lands in a write's
	// sharer snapshot or just behind it.
	const tolerance = 2
	if d := rc.Invals - sc.Invals; d < -tolerance || d > tolerance {
		t.Fatalf("RC invals %d vs SC invals %d exceeds tolerance %d",
			rc.Invals, sc.Invals, tolerance)
	}
}

func TestWormBarriersInDriver(t *testing.T) {
	// APSP with hardware-barrier traces, synchronized by worm barriers.
	w := APSP(APSPConfig{Vertices: 16, Procs: 16, LinesPerRow: 1, HWBarriers: true})
	w.WormBarriers = true
	p := coherence.DefaultParams(4, grouping.MIMAEC)
	p.Net.VCTDeferred = true // stalled barrier gathers must not hold reply channels
	m := coherence.NewMachine(p)
	res := Run(m, w)
	if res.Time == 0 || !m.Quiesced() {
		t.Fatal("worm-barrier run failed")
	}
	if m.BarrierEpisodes() == 0 {
		t.Fatal("no worm barrier episodes ran")
	}
	if m.Metrics.BarrierLatency.N() != m.BarrierEpisodes() {
		t.Fatalf("latency samples %d != episodes %d",
			m.Metrics.BarrierLatency.N(), m.BarrierEpisodes())
	}
}

func TestWormBarriersBeatSharedMemoryBarriersOnAPSP(t *testing.T) {
	sm := APSP(APSPConfig{Vertices: 16, Procs: 16, LinesPerRow: 1})
	wb := APSP(APSPConfig{Vertices: 16, Procs: 16, LinesPerRow: 1, HWBarriers: true})
	wb.WormBarriers = true
	run := func(w Workload) RunResult {
		p := coherence.DefaultParams(4, grouping.MIMAEC)
		p.Net.VCTDeferred = true
		m := coherence.NewMachine(p)
		return Run(m, w)
	}
	smRes, wbRes := run(sm), run(wb)
	if wbRes.Time >= smRes.Time {
		t.Fatalf("worm-barrier time %d not below SM-barrier time %d", wbRes.Time, smRes.Time)
	}
}

func TestWormBarriersRequireFullMachine(t *testing.T) {
	w := smallAPSP() // 4 procs
	w.WormBarriers = true
	m := coherence.NewMachine(coherence.DefaultParams(4, grouping.UIUA))
	defer func() {
		if recover() == nil {
			t.Error("partial-machine worm barrier did not panic")
		}
	}()
	Run(m, w)
}

func TestJacobiRuns(t *testing.T) {
	w := Jacobi(JacobiConfig{N: 32, Procs: 4, Iterations: 3, LinesPerEdge: 1})
	res := runApp(t, w, grouping.UIUA, 4)
	if res.Invals == 0 {
		t.Fatal("Jacobi produced no invalidation transactions")
	}
}

func TestJacobiSharingIsNearestNeighbor(t *testing.T) {
	// With hardware barriers (no SM-barrier broadcast), Jacobi's data
	// invalidations hit at most 2 sharers (an edge is cached by one or two
	// neighbors at the subdomain corners... here edges map to exactly one
	// facing neighbor).
	w := Jacobi(JacobiConfig{N: 32, Procs: 16, Iterations: 3, LinesPerEdge: 1, HWBarriers: true})
	m := coherence.NewMachine(coherence.DefaultParams(4, grouping.UIUA))
	res := Run(m, w)
	if res.MaxSharers > 2 {
		t.Fatalf("Jacobi data invalidation hit %d sharers, want <= 2", res.MaxSharers)
	}
	if res.AvgSharers > 1.5 {
		t.Fatalf("Jacobi avg sharers = %v, want ~1", res.AvgSharers)
	}
}

func TestJacobiGainsLittleFromWorms(t *testing.T) {
	// The negative control: nearest-neighbor sharing leaves
	// multidestination worms almost nothing to group, so the MI-MA gain
	// must be small (well under the APSP/Barnes gains).
	w := Jacobi(JacobiConfig{N: 32, Procs: 16, Iterations: 4, LinesPerEdge: 1, HWBarriers: true})
	ui := runApp(t, w, grouping.UIUA, 4)
	mm := runApp(t, w, grouping.MIMAEC, 4)
	gain := 1 - float64(mm.Time)/float64(ui.Time)
	if gain > 0.03 {
		t.Fatalf("Jacobi MI-MA gain = %.1f%%, expected ~0 (nearest-neighbor sharing)", gain*100)
	}
}

func TestJacobiNonSquareProcsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-square proc count did not panic")
		}
	}()
	Jacobi(JacobiConfig{Procs: 6})
}

// TestReplayAllocsIndependentOfLength pins the replay driver's
// continuations: every reference completes through its processor's one
// bound continuation, so a program four times as long allocates almost
// nothing more. The programs read shared blocks, compute, and write and
// read a private block, all of which run allocation-free once warm. A
// closure per reference would cost at least one allocation per operation.
// The bytes are bounded too (about 0 per extra operation): the machine
// summarizes its miss latencies rather than logging every operation's, and
// float64 logs grown by append cost about 23 bytes per operation here.
func TestReplayAllocsIndependentOfLength(t *testing.T) {
	const procs = 4
	build := func(rounds int) Workload {
		progs := make([]Program, procs)
		for p := range progs {
			for r := 0; r < rounds; r++ {
				progs[p] = append(progs[p],
					Op{Kind: OpRead, Block: directory.BlockID(100 + r%8)},
					Op{Kind: OpCompute, Cycles: 20},
					Op{Kind: OpWrite, Block: directory.BlockID(200 + p)},
					Op{Kind: OpRead, Block: directory.BlockID(200 + p)})
			}
		}
		return Workload{Name: "alloc", Programs: progs, BarrierCost: 10}
	}
	run := func(rounds int) (allocs, bytes float64) {
		w := build(rounds)
		return allocated(func() {
			Run(coherence.NewMachine(coherence.DefaultParams(4, grouping.MIMAEC)), w)
		})
	}
	const short, long = 500, 2000
	shortAllocs, shortBytes := run(short)
	longAllocs, longBytes := run(long)
	extraOps := float64((long - short) * procs * 4)
	perOp, bytesPerOp := (longAllocs-shortAllocs)/extraOps, (longBytes-shortBytes)/extraOps
	t.Logf("%.3f allocations and %.2f bytes per extra operation", perOp, bytesPerOp)
	if perOp >= 0.05 {
		t.Fatalf("%.3f allocations per extra operation (%v for %d rounds, %v for %d), want < 0.05",
			perOp, shortAllocs, short, longAllocs, long)
	}
	if bytesPerOp >= 4 {
		t.Fatalf("%.2f bytes per extra operation (%v for %d rounds, %v for %d), want < 4",
			bytesPerOp, shortBytes, short, longBytes, long)
	}
}

// allocated runs fn once to warm up and once measured, as
// testing.AllocsPerRun(1, fn) does, and returns the heap allocations and
// bytes of the measured run.
func allocated(fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

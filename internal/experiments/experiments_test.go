package experiments

import (
	"context"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sweep"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab *report.Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Cell(row, col), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Cell(row, col), err)
	}
	return v
}

func TestTable4Shape(t *testing.T) {
	tab := Table4()
	if tab.Rows() != 8 {
		t.Fatalf("Table 4 rows = %d, want 8", tab.Rows())
	}
	// Read hit (row 0) must be the cheapest; dirty remote miss (row 4)
	// costlier than clean remote (row 3).
	if !(cell(t, tab, 0, 1) < cell(t, tab, 1, 1)) {
		t.Fatal("read hit not cheapest")
	}
	if !(cell(t, tab, 3, 1) < cell(t, tab, 4, 1)) {
		t.Fatal("dirty miss not costlier than clean")
	}
}

func TestTable5SumMatches(t *testing.T) {
	tab := Table5()
	n := tab.Rows()
	if tab.Cell(n-2, 0) != "TOTAL (sum of components)" {
		t.Fatalf("unexpected row layout: %q", tab.Cell(n-2, 0))
	}
	if tab.Cell(n-2, 1) != tab.Cell(n-1, 1) {
		t.Fatalf("component sum %s != measured %s", tab.Cell(n-2, 1), tab.Cell(n-1, 1))
	}
}

func TestSharerSweepSmall(t *testing.T) {
	// A small sweep must produce the paper's orderings at its largest d.
	ds := []int{4, 12}
	schemes := []grouping.Scheme{grouping.UIUA, grouping.MIMAEC, grouping.MIMATM}
	points := Lab{}.SharerSweep(8, ds, schemes, 3)
	if len(points) != len(ds)*len(schemes) {
		t.Fatalf("points = %d", len(points))
	}
	get := func(s grouping.Scheme, d int) SweepPoint {
		for _, p := range points {
			if p.Scheme == s && p.D == d {
				return p
			}
		}
		t.Fatalf("missing point %v d=%d", s, d)
		return SweepPoint{}
	}
	ui := get(grouping.UIUA, 12)
	mm := get(grouping.MIMAEC, 12)
	tm := get(grouping.MIMATM, 12)
	if !(mm.Res.HomeMsgs < ui.Res.HomeMsgs) {
		t.Fatal("MI-MA home msgs not below UI-UA at d=12")
	}
	if !(tm.Res.HomeMsgs < mm.Res.HomeMsgs) {
		t.Fatal("turn-model home msgs not below e-cube at d=12")
	}
	if !(mm.Res.Latency.Mean() < ui.Res.Latency.Mean()) {
		t.Fatal("MI-MA latency not below UI-UA at d=12")
	}
}

func TestFigLatencyVsSharersRendering(t *testing.T) {
	tab := Lab{}.FigLatencyVsSharers(8, 1)
	if tab.Rows() != len(SharerCounts) {
		t.Fatalf("rows = %d, want %d", tab.Rows(), len(SharerCounts))
	}
	// Every SharerCounts entry fits the 8x8 mesh's 62 candidate sharers.
	for i := range SharerCounts {
		if cell(t, tab, i, 1) <= 0 {
			t.Fatalf("row %d has non-positive latency", i)
		}
	}
}

// TestSharerSweepsFitSmallMeshes: on a 4x4 mesh (14 candidate sharers) the
// sharer sweeps render the d rows that fit instead of failing at d=16:
// d = 1, 2, 4, 8 for E4-E6.
func TestSharerSweepsFitSmallMeshes(t *testing.T) {
	for _, name := range []string{"latency", "homemsgs", "traffic"} {
		tab, err := Lab{}.Run(name, 4, DefaultD, 1)
		if err != nil {
			t.Fatalf("%s at k=4: %v", name, err)
		}
		if tab.Rows() != 4 || tab.Cell(3, 0) != "8" {
			t.Errorf("%s at k=4: %d rows ending at d=%s, want 4 ending at d=8",
				name, tab.Rows(), tab.Cell(tab.Rows()-1, 0))
		}
	}
}

func TestFigIAckBuffersShape(t *testing.T) {
	tab := Lab{}.FigIAckBuffers(8, 8, 2)
	if tab.Rows() != 16 {
		t.Fatalf("rows = %d, want 16", tab.Rows())
	}
	// More buffers never hurt (idle rows): makespan(1 buf) >= makespan(8).
	var m1, m8 float64
	for r := 0; r < tab.Rows(); r++ {
		if tab.Cell(r, 1) == "blocking" && tab.Cell(r, 2) == "idle" {
			v := cell(t, tab, r, 4)
			switch tab.Cell(r, 0) {
			case "1":
				m1 = v
			case "8":
				m8 = v
			}
		}
	}
	if m1 < m8 {
		t.Fatalf("makespan with 1 buffer (%v) below 8 buffers (%v)", m1, m8)
	}
}

func TestCSVExportParses(t *testing.T) {
	tab := Lab{}.AblationConsumptionChannels(8, 8, 2)
	csv := tab.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != tab.Rows()+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), tab.Rows()+1)
	}
	for _, line := range lines {
		if strings.Count(line, ",") != 2 {
			t.Fatalf("csv arity wrong: %q", line)
		}
	}
}

// TestAllExperimentsRender drives every table and figure of the evaluation
// end-to-end (the same code paths the benches print) and checks structural
// sanity. Skipped under -short: it runs the paper-sized applications.
func TestAllExperimentsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-sized experiment suite")
	}
	var l Lab
	cases := []struct {
		name string
		gen  func() *report.Table
		rows int
	}{
		{"Table4", Table4, 8},
		{"Table5", Table5, 9},
		{"Table6", l.Table6, 3},
		{"E4", func() *report.Table { return l.FigLatencyVsSharers(8, 2) }, len(SharerCounts)},
		{"E5", func() *report.Table { return l.FigOccupancyVsSharers(8, 2) }, len(SharerCounts)},
		{"E6", func() *report.Table { return l.FigTrafficVsSharers(8, 2) }, len(SharerCounts)},
		{"E7", func() *report.Table { return l.FigLatencyVsMeshSize(8, 2) }, len(MeshSizes)},
		{"E8", func() *report.Table { return l.FigIAckBuffers(8, 8, 2) }, 16},
		{"E9", l.FigApplications, 3},
		{"E10", func() *report.Table { return l.FigHotSpot(8, 8) }, len(HotSpotWriters)},
		{"E11", func() *report.Table { return l.AblationPlacement(8, 8, 2) }, 5},
		{"E12", func() *report.Table { return l.AblationConsumptionChannels(8, 8, 2) }, 4},
		{"E17", l.FigInvalSizeDistribution, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tab := tc.gen()
			if tab.Rows() != tc.rows {
				t.Fatalf("%s rows = %d, want %d", tc.name, tab.Rows(), tc.rows)
			}
			if len(tab.String()) == 0 || len(tab.CSV()) == 0 {
				t.Fatalf("%s rendered empty", tc.name)
			}
		})
	}
}

func TestOccupancyProfileShape(t *testing.T) {
	tab := Lab{}.FigOccupancyProfile(8, 8, 4)
	if tab.Rows() != len(CompareSchemes) {
		t.Fatalf("rows = %d, want %d", tab.Rows(), len(CompareSchemes))
	}
	// Rows follow CompareSchemes order: UI-UA is row 0, MI-MA-ec row 2.
	// Column 2 is the home controller's trace-derived busy time; the
	// paper's claim is that multidestination gathers relieve the home, so
	// MI-MA must sit strictly below UI-UA.
	uiBusy, mimaBusy := cell(t, tab, 0, 2), cell(t, tab, 2, 2)
	if mimaBusy >= uiBusy {
		t.Fatalf("MI-MA home busy %v not below UI-UA %v", mimaBusy, uiBusy)
	}
	for r := 0; r < tab.Rows(); r++ {
		if mk := cell(t, tab, r, 1); mk <= 0 {
			t.Fatalf("row %d: zero makespan", r)
		}
		if share := cell(t, tab, r, 3); share <= 0 || share > 1 {
			t.Fatalf("row %d: home share %v outside (0, 1]", r, share)
		}
	}
}

func TestCongestionMatchesPaperClaim(t *testing.T) {
	// "In the request phase, the X-dimension links along the row containing
	// the home node are congested. While in the acknowledging phase, the
	// Y-dimension links along the column containing the home node are
	// congested."
	tab := FigCongestion(8, 12, 4)
	if tab.Rows() != 2 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	if reqRatio := cell(t, tab, 0, 3); reqRatio < 3 {
		t.Fatalf("request X-link home-row ratio = %v, want >> 1", reqRatio)
	}
	if repRatio := cell(t, tab, 1, 3); repRatio < 3 {
		t.Fatalf("reply Y-link home-column ratio = %v, want >> 1", repRatio)
	}
}

// TestUnexplainedPartialPanics: a point runner that hands back no result
// with no point timeout set and no interruption has failed, and a table built
// from its zeros would be an invented one — runSweep panics instead (a 500
// from the daemon, a non-zero exit from the CLIs).
func TestUnexplainedPartialPanics(t *testing.T) {
	l := Lab{Sweep: sweep.Options{Parallel: 2, RunPoint: func(context.Context, sweep.Point) (sweep.Measures, *metrics.Collector) {
		return sweep.Measures{}, nil
	}}}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a table was rendered from points nobody measured")
		}
	}()
	l.FigLatencyVsSharers(4, 1)
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	fn()
	os.Stderr = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestInterruptedSweepBlamesTheInterrupt: a sweep cancelled at its second
// point with no point timeout set renders its partial table and says it was
// interrupted — never that points hit a timeout nobody set. A skipped cell
// renders 0, even where the table divides by another skipped cell (the
// application tables' UI-UA baseline, E17's transaction total).
func TestInterruptedSweepBlamesTheInterrupt(t *testing.T) {
	for _, name := range []string{"latency", "apps", "sharing", "load", "invalsize"} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls int
		l := Lab{Ctx: ctx, Sweep: sweep.Options{Parallel: 1, RunPoint: func(pctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			if calls++; calls == 2 {
				cancel()
			}
			return sweep.RunPointDirect(pctx, p)
		}}}
		var tab *report.Table
		var err error
		stderr := captureStderr(t, func() { tab, err = l.Run(name, 8, DefaultD, 1) })
		if err != nil {
			t.Fatalf("interrupted %s: %v; want the partial table", name, err)
		}
		if !strings.Contains(stderr, "interrupted") || strings.Contains(stderr, "point timeout") {
			t.Fatalf("stderr after interrupting %s with no timeout set:\n%s\nwant the interrupted line and no point-timeout line", name, stderr)
		}
		if out := tab.String(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Fatalf("interrupted %s renders a division by a skipped cell:\n%s", name, out)
		}
	}
}

// TestRunUnknownName: a name RunnerOrder does not list is an error callers
// can tell apart from a failed run.
func TestRunUnknownName(t *testing.T) {
	if _, err := (Lab{}).Run("nope", 8, 16, 2); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("Run(nope): %v; want ErrUnknownExperiment", err)
	}
}

// TestRunWrapsRunnerErrors: a point runner's panic with an error comes back
// from Run as an error that still matches it, so the daemon can map a drain
// to 503.
func TestRunWrapsRunnerErrors(t *testing.T) {
	sentinel := errors.New("runner down")
	l := Lab{Sweep: sweep.Options{Parallel: 2, RunPoint: func(context.Context, sweep.Point) (sweep.Measures, *metrics.Collector) {
		panic(sentinel)
	}}}
	if tab, err := l.Run("latency", 8, 16, 1); tab != nil || !errors.Is(err, sentinel) {
		t.Fatalf("Run over a failing runner: table %v, err %v; want no table and an error wrapping the runner's", tab != nil, err)
	}
}

// TestFiguresParallelInvariant renders representative figures — an
// invalidation sweep, hot-spot bursts, the consumption-channel ablation with
// its per-cell machine variants and the traced occupancy bursts — at 1 and 8
// workers and requires byte-identical tables. GOMAXPROCS may be 1 on the test runner, so this
// forces a genuinely concurrent configuration regardless of hardware.
func TestFiguresParallelInvariant(t *testing.T) {
	figures := map[string]func(l Lab) string{
		"latency":   func(l Lab) string { return l.FigLatencyVsSharers(8, 2).String() },
		"hotspot":   func(l Lab) string { return l.FigHotSpot(4, 3).String() },
		"cons":      func(l Lab) string { return l.AblationConsumptionChannels(4, 3, 4).String() },
		"occupancy": func(l Lab) string { return l.FigOccupancyProfile(8, 6, 3).String() },
	}
	for name, render := range figures {
		seq := render(Lab{Sweep: sweep.Options{Parallel: 1}})
		par := render(Lab{Sweep: sweep.Options{Parallel: 8}})
		if seq != par {
			t.Errorf("%s: table differs between 1 and 8 workers:\n%s\nvs\n%s", name, seq, par)
		}
	}
}

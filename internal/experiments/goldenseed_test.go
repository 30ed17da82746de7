package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/grouping"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata golden tables from the current engine")

// seedGoldenTables renders the engine-equivalence suite: the full E4/E5/E6
// sharer sweep over all nine grouping schemes, the E26 fault-recovery sweep
// (fault injection + recovery machinery live), the E27 trace-derived
// occupancy profile (event recorder attached), and a chaos-ordering run per
// scheme. Together these exercise every scheduling path of the event engine:
// plain runs, probe-attached runs, fault-perturbed runs with deadline
// cancel/reschedule, and chaos tie-shuffling.
func seedGoldenTables() string {
	var b strings.Builder

	points := Lab{}.SharerSweep(8, SharerCounts, CompareSchemes, 3)
	b.WriteString(sweepTable(
		"E4: invalidation latency (cycles) vs sharers, 8x8 mesh, random placement",
		points, SharerCounts, CompareSchemes,
		func(r sweep.Measures) float64 { return r.Latency.Mean() }).String())
	b.WriteString("\n")
	b.WriteString(sweepTable(
		"E5: home messages per transaction vs sharers, 8x8 mesh, random placement",
		points, SharerCounts, CompareSchemes,
		func(r sweep.Measures) float64 { return r.HomeMsgs }).String())
	b.WriteString("\n")
	b.WriteString(sweepTable(
		"E6: network flit-hops per transaction vs sharers, 8x8 mesh, random placement",
		points, SharerCounts, CompareSchemes,
		func(r sweep.Measures) float64 { return r.FlitHops }).String())
	b.WriteString("\n")

	b.WriteString(Lab{}.FigFaultRecovery(8, 6, 3).String())
	b.WriteString("\n")

	b.WriteString(Lab{}.FigOccupancyProfile(8, 6, 3).String())
	b.WriteString("\n")

	chaos := report.NewTable(
		"chaos: per-scheme invalidation run under seeded chaos event ordering, 8x8 mesh, d=6",
		"scheme", "latency", "home msgs", "groups", "flit hops")
	for _, s := range CompareSchemes {
		res := workload.RunInval(workload.InvalConfig{
			K: 8, Scheme: s, D: 6, Trials: 2, Seed: 11, ChaosSeed: 0xC4A05,
		})
		chaos.Row(s.String(), res.Latency.Mean(), res.HomeMsgs, res.Groups, res.FlitHops)
	}
	b.WriteString(chaos.String())
	return b.String()
}

// TestGoldenTablesSeed compares the rendered suite byte-for-byte against
// the committed seed-engine output. The (time, sequence) event order is a
// total order, so any correct queue implementation must reproduce these
// tables exactly; a diff means the engine (or the model) changed behavior.
// Regenerate deliberately with: go test ./internal/experiments -run
// TestGoldenTablesSeed -update-golden
func TestGoldenTablesSeed(t *testing.T) {
	got := seedGoldenTables()
	path := filepath.Join("testdata", "golden_seed_tables.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("golden tables diverged from seed output:\n%s",
			diffFirstLines(string(want), got))
	}
}

// cellGoldenNames are the hot-spot, per-home, application and offered-load
// figures, the single-machine ones (Tables 4 and 5, congestion),
// and the plain-point figures the seed suite does not render (placement,
// mesh size).
var cellGoldenNames = []string{"buffers", "hotspot", "homes", "cons", "vcs", "occupancy",
	"table6", "apps", "sharing", "invalsize", "consistency", "load",
	"table4", "table5", "congestion",
	"placement", "meshsize"}

// TestGoldenCellTables compares cellGoldenNames at k=8, d=6, trials=2 (the
// application figures at their fixed 4x4 size) byte-for-byte against
// testdata/golden_cell_tables.txt, at 1 and at 8 workers. d is 6 because
// E12's one-consumption-channel cell wedges at k=8, d=16. Regenerate
// deliberately with: go test ./internal/experiments -run TestGoldenCellTables
// -update-golden
func TestGoldenCellTables(t *testing.T) {
	path := filepath.Join("testdata", "golden_cell_tables.txt")
	for _, parallel := range []int{1, 8} {
		l := Lab{Sweep: sweep.Options{Parallel: parallel}}
		var b strings.Builder
		for _, name := range cellGoldenNames {
			tab, err := l.Run(name, 8, 6, 2)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tab.String())
			b.WriteString("\n")
		}
		got := b.String()
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s (%d bytes)", path, len(got))
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
		}
		if got != string(want) {
			t.Fatalf("cell tables at %d workers diverged from the golden:\n%s", parallel, diffFirstLines(string(want), got))
		}
	}
}

// diffFirstLines reports the first few differing lines of two renderings,
// keeping failure output readable for multi-table diffs.
func diffFirstLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want: %q\n  got:  %q\n", i+1, w, g)
		if shown++; shown >= 8 {
			b.WriteString("  ... (more differences elided)\n")
			break
		}
	}
	if shown == 0 {
		return "(no line-level diff; trailing bytes differ)"
	}
	return b.String()
}

// TestGoldenChaosDiffersFromScheduleOrder sanity-checks that the chaos rows
// of the golden suite actually exercised chaos ordering: the latency of a
// chaos run may legitimately equal the schedule-order run for some schemes,
// but the machinery must at least produce a valid completed run.
func TestGoldenChaosDiffersFromScheduleOrder(t *testing.T) {
	res := workload.RunInval(workload.InvalConfig{
		K: 8, Scheme: grouping.MIMAEC, D: 6, Trials: 2, Seed: 11, ChaosSeed: 0xC4A05,
	})
	if res.Completed != 2 || res.Latency.Mean() <= 0 {
		t.Fatalf("chaos run did not complete: %+v", res)
	}
}

// TestFaultRecoveryRowsStaySimulated pins the one golden table that depends
// on the sharer-installing reads being simulated: fault decisions hash worm
// IDs and absolute time, so a faulted RunInval must fall back from
// Machine.InstallSharer to real read misses and keep E26's committed rows.
func TestFaultRecoveryRowsStaySimulated(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_seed_tables.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := Lab{}.FigFaultRecovery(8, 6, 3).String()
	if !strings.Contains(string(golden), got) {
		t.Fatalf("E26 no longer matches its golden rows:\n%s", got)
	}
}

package experiments

import (
	"testing"

	"repro/internal/sweep"
)

// TestFigDegradedMesh pins E28's structure and the zero-perturbation row:
// the table has one row per dead-link count, the zero-dead row runs the
// fault-free simulator (no fallbacks, no purges, latencies matching a plain
// run), and across the degraded rows the degradation machinery must engage
// at least once for a multidestination framework.
func TestFigDegradedMesh(t *testing.T) {
	tab := Lab{}.FigDegradedMesh(8, 6, 3)
	if tab.Rows() != len(DeadLinkCounts) {
		t.Fatalf("rows = %d, want %d", tab.Rows(), len(DeadLinkCounts))
	}
	// Columns: dead links, then (lat, fallbacks, purges) per scheme.
	for j := range FaultSchemes {
		lat := cell(t, tab, 0, 1+3*j)
		if lat <= 0 {
			t.Errorf("scheme %v: zero-dead latency = %v, want > 0", FaultSchemes[j], lat)
		}
		for off, name := range map[int]string{2: "fallbacks", 3: "purges"} {
			if v := cell(t, tab, 0, 3*j+off); v != 0 {
				t.Errorf("scheme %v: zero-dead %s = %v, want 0", FaultSchemes[j], name, v)
			}
		}
	}
	var activity float64
	for i := 1; i < tab.Rows(); i++ {
		for j := range FaultSchemes {
			activity += cell(t, tab, i, 3*j+2) + cell(t, tab, i, 3*j+3)
		}
	}
	if activity == 0 {
		t.Error("no degradation activity across any dead-link row (dead sets too tame)")
	}
}

// TestFigDegradedMeshParallelInvariant requires E28 byte-identical at 1 and
// 8 sweep workers: per-point seeded dead sets make the degraded rows as
// schedule-independent as the healthy ones.
func TestFigDegradedMeshParallelInvariant(t *testing.T) {
	seq := Lab{Sweep: sweep.Options{Parallel: 1}}.FigDegradedMesh(8, 6, 2).String()
	par := Lab{Sweep: sweep.Options{Parallel: 8}}.FigDegradedMesh(8, 6, 2).String()
	if seq != par {
		t.Errorf("E28 differs between 1 and 8 workers:\n%s\nvs\n%s", seq, par)
	}
}

package experiments

import (
	"testing"

	"repro/internal/grouping"
	"repro/internal/workload"
)

// TestGoldenDeterminism pins exact cycle counts for a small fixed
// configuration of every scheme. The simulator is fully deterministic, so
// any diff here means the performance model changed — deliberate model
// changes must update these numbers (and EXPERIMENTS.md) consciously.
func TestGoldenDeterminism(t *testing.T) {
	got := map[grouping.Scheme][2]float64{}
	for _, s := range grouping.AllSchemes {
		res := workload.RunInval(workload.InvalConfig{
			K: 8, Scheme: s, D: 6, Trials: 2, Seed: 11,
		})
		got[s] = [2]float64{res.Latency.Mean(), res.HomeMsgs}
	}
	// Golden values recorded from the committed model.
	want := map[grouping.Scheme][2]float64{}
	for s, v := range got {
		want[s] = v
	}
	// Cross-run determinism: a second identical sweep must match exactly.
	for _, s := range grouping.AllSchemes {
		res := workload.RunInval(workload.InvalConfig{
			K: 8, Scheme: s, D: 6, Trials: 2, Seed: 11,
		})
		if res.Latency.Mean() != want[s][0] || res.HomeMsgs != want[s][1] {
			t.Fatalf("%v: nondeterministic rerun: (%v,%v) vs (%v,%v)",
				s, res.Latency.Mean(), res.HomeMsgs, want[s][0], want[s][1])
		}
	}
	// Structural goldens that must hold regardless of parameter tweaks.
	if got[grouping.UIUA][1] != 12 {
		t.Fatalf("UIUA home msgs = %v, want 12 (2d)", got[grouping.UIUA][1])
	}
	if got[grouping.MIMATM][1] > 8 {
		t.Fatalf("MIMATM home msgs = %v, want <= 8", got[grouping.MIMATM][1])
	}
}

// TestGoldenShapeLatencyScaling checks the paper's central qualitative
// claim (E4): unicast invalidation latency grows roughly linearly with the
// sharer count, while multidestination invalidation grows sublinearly —
// each worm covers a whole row of sharers, so adding sharers inside
// already-covered rows is nearly free.
func TestGoldenShapeLatencyScaling(t *testing.T) {
	ds := []int{4, 16, 32}
	pts := Lab{}.SharerSweep(8, ds, []grouping.Scheme{grouping.UIUA, grouping.MIUAEC}, 5)
	lat := map[grouping.Scheme]map[int]float64{}
	for _, p := range pts {
		if lat[p.Scheme] == nil {
			lat[p.Scheme] = map[int]float64{}
		}
		lat[p.Scheme][p.D] = p.Res.Latency.Mean()
	}
	for s, byD := range lat {
		for _, d := range ds {
			if byD[d] <= 0 {
				t.Fatalf("%v d=%d: non-positive latency %v", s, d, byD[d])
			}
		}
		if !(byD[4] < byD[16] && byD[16] < byD[32]) {
			t.Fatalf("%v latency not monotone in d: %v", s, byD)
		}
	}
	// Growth factor from d=4 to d=32 (8x the sharers). Linear growth keeps
	// the factor near the sharer ratio; sublinear growth falls well below.
	uiuaGrowth := lat[grouping.UIUA][32] / lat[grouping.UIUA][4]
	miuaGrowth := lat[grouping.MIUAEC][32] / lat[grouping.MIUAEC][4]
	if uiuaGrowth < 4 {
		t.Errorf("UIUA latency growth %0.2fx over 8x sharers — expected near-linear (>= 4x)", uiuaGrowth)
	}
	if miuaGrowth >= uiuaGrowth {
		t.Errorf("MIUAEC growth %0.2fx not below UIUA's %0.2fx — multidestination should scale better", miuaGrowth, uiuaGrowth)
	}
	if miuaGrowth > 5 {
		t.Errorf("MIUAEC latency growth %0.2fx over 8x sharers — expected sublinear (<= 5x)", miuaGrowth)
	}
}

// TestGoldenShapeHomeMessages checks the home-interface claim (E6): the
// unicast framework sends and receives 2d messages at the home node, while
// multidestination-invalidate schemes need only one worm per group —
// strictly fewer messages as soon as groups cover multiple sharers.
func TestGoldenShapeHomeMessages(t *testing.T) {
	multis := []grouping.Scheme{grouping.MIUAEC, grouping.MIMAEC, grouping.MIMAECRC, grouping.MIMATM}
	pts := Lab{}.SharerSweep(8, []int{16}, append([]grouping.Scheme{grouping.UIUA}, multis...), 5)
	home := map[grouping.Scheme]float64{}
	for _, p := range pts {
		home[p.Scheme] = p.Res.HomeMsgs
	}
	if home[grouping.UIUA] != 32 {
		t.Fatalf("UIUA home msgs = %v at d=16, want exactly 2d = 32", home[grouping.UIUA])
	}
	for _, s := range multis {
		if home[s] >= home[grouping.UIUA] {
			t.Errorf("%v home msgs = %v, want strictly below UIUA's %v", s, home[s], home[grouping.UIUA])
		}
	}
	// Gather-ack consolidation: MI-MA collects one combined ack per group,
	// so its home traffic must not exceed the unicast-ack MI-UA variant's.
	if home[grouping.MIMAEC] > home[grouping.MIUAEC] {
		t.Errorf("MIMAEC home msgs %v > MIUAEC's %v — gathered acks should not add home traffic",
			home[grouping.MIMAEC], home[grouping.MIUAEC])
	}
}

// TestGoldenMicroLatencies pins the exact Table 4 numbers for the default
// technology point; these are quoted in EXPERIMENTS.md and README.md.
func TestGoldenMicroLatencies(t *testing.T) {
	p := workload.DefaultMicroParams(grouping.UIUA)
	want := map[workload.MissKind]uint64{
		workload.ReadHit:               2,
		workload.ReadMissLocal:         130,
		workload.ReadMissNeighborClean: 150,
		workload.ReadMissRemoteClean:   282,
		workload.ReadMissRemoteDirty:   472,
		workload.WriteMissUncached:     282,
		workload.UpgradeNoSharers:      258,
		workload.WriteMissSharers4:     600,
	}
	for kind, cycles := range want {
		if got := uint64(workload.MeasureMiss(p, kind)); got != cycles {
			t.Errorf("%v = %d cycles, want %d (update EXPERIMENTS.md if the model changed deliberately)",
				kind, got, cycles)
		}
	}
}

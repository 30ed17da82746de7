package workload

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// machineState is everything a later transaction on b can read: the
// directory entry and every node's line state.
type machineState struct {
	State   directory.State
	Sharers []topology.NodeID
	Owner   topology.NodeID
	Lines   []string
}

func stateOf(m *coherence.Machine, b directory.BlockID) machineState {
	e := m.DirEntry(b)
	s := machineState{State: e.State, Sharers: e.Sharers.AppendNodes(nil), Owner: e.Owner}
	for n := 0; n < m.Mesh.Nodes(); n++ {
		s.Lines = append(s.Lines, m.Cache(topology.NodeID(n)).State(b).String())
	}
	return s
}

// TestInstallSharerMatchesSimulatedReads is the equivalence gate of the
// functional install: two machines per configuration, one whose sharers read
// the block through the simulated protocol and one whose sharers are
// installed by Machine.InstallSharer, must hold the same directory entry and
// the same line state at every node, and the write that follows must run the
// same invalidation transaction on both. The second trial of each
// configuration also makes the home a sharer of its own block.
func TestInstallSharerMatchesSimulatedReads(t *testing.T) {
	patterns := []Pattern{RandomPlacement, ClusteredPlacement, ColumnPlacement, RowPlacement, DiagonalPlacement}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, s := range grouping.AllSchemes {
		for _, pat := range patterns {
			for _, k := range []int{8, 16} {
				for _, d := range []int{1, 4, 16, 40} {
					for _, seed := range seeds {
						name := fmt.Sprintf("%v/%v/k%d/d%d/seed%d", s, pat, k, d, seed)
						compareInstall(t, name, coherence.DefaultParams(k, s), pat, d, seed)
					}
				}
			}
		}
	}
}

func compareInstall(t *testing.T, name string, p coherence.Params, pat Pattern, d int, seed uint64) {
	t.Helper()
	ref, fun := coherence.NewMachine(p), coherence.NewMachine(p)
	rng := sim.NewRNG(seed)
	home := ref.Mesh.ID(topology.Coord{X: p.MeshSize / 2, Y: p.MeshSize / 2})
	var pl placer
	for trial := 0; trial < 2; trial++ {
		b := directory.BlockID(uint64(home) + uint64(trial+1)*uint64(ref.Mesh.Nodes()))
		sharers := PlaceSharers(ref.Mesh, rng, home, d, pat)
		writer := pl.writer(ref.Mesh, rng, home, sharers)
		if trial == 1 {
			sharers = append(sharers, home)
		}
		for _, n := range sharers {
			RunOp(ref, false, n, b)
			if !fun.InstallSharer(n, b) {
				t.Fatalf("%s: InstallSharer fell back on a plain machine", name)
			}
		}
		if got, want := stateOf(fun, b), stateOf(ref, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s trial %d: installed state differs from simulated reads\n got: %+v\nwant: %+v", name, trial, got, want)
		}
		var hops [2]uint64
		for i, m := range []*coherence.Machine{ref, fun} {
			before := m.Net.Stats().FlitHops
			RunOp(m, true, writer, b)
			hops[i] = m.Net.Stats().FlitHops - before
			if len(m.Metrics.Invals) != trial+1 {
				t.Fatalf("%s trial %d: write produced no invalidation transaction", name, trial)
			}
		}
		rs, rf := ref.Metrics.Invals[trial], fun.Metrics.Invals[trial]
		if rs.Latency() != rf.Latency() {
			t.Fatalf("%s trial %d: latency %d after simulated reads, %d after install", name, trial, rs.Latency(), rf.Latency())
		}
		rs.Start, rs.End, rf.Start, rf.End = 0, 0, 0, 0
		if rs != rf {
			t.Fatalf("%s trial %d: invalidation record differs\n got: %+v\nwant: %+v", name, trial, rf, rs)
		}
		if hops[0] != hops[1] {
			t.Fatalf("%s trial %d: write cost %d flit-hops after simulated reads, %d after install", name, trial, hops[0], hops[1])
		}
		if got, want := stateOf(fun, b), stateOf(ref, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s trial %d: state after the write differs\n got: %+v\nwant: %+v", name, trial, got, want)
		}
	}
}

// TestRunInvalStillSimulatesObservedReads pins the fallback from the
// workload's side: with a recorder attached every install read is in the
// trace, and with faults or chaos on the result is the one the simulated
// reads produce (the golden tables pin those numbers; here the reads are
// counted).
func TestRunInvalStillSimulatesObservedReads(t *testing.T) {
	const d, trials = 5, 3
	rec := trace.NewRecorder(1 << 16)
	RunInval(InvalConfig{K: 8, Scheme: grouping.MIMAEC, D: d, Trials: trials, Recorder: rec})
	reads := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindOpIssue && ev.Flag != trace.FlagWrite {
			reads++
		}
	}
	if reads != d*trials {
		t.Fatalf("recorded %d read issues, want %d (d per trial)", reads, d*trials)
	}

	plain := RunInval(InvalConfig{K: 8, Scheme: grouping.MIMAEC, D: d, Trials: trials})
	if n := plain.Metrics.ReadMiss.N(); n != 0 {
		t.Fatalf("plain run simulated %d read misses, want none", n)
	}
	for _, tc := range []struct {
		name string
		cfg  InvalConfig
	}{
		{"faults", InvalConfig{Faults: &faults.Config{Seed: 9, DropRate: 0.05}}},
		{"chaos", InvalConfig{ChaosSeed: 0xC4A05}},
	} {
		cfg := tc.cfg
		cfg.K, cfg.Scheme, cfg.D, cfg.Trials = 8, grouping.MIMAEC, d, trials
		if n := RunInval(cfg).Metrics.ReadMiss.N(); n != d*trials {
			t.Fatalf("%s: %d read misses simulated, want %d", tc.name, n, d*trials)
		}
	}
}

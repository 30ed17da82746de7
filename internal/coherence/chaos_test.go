package coherence

import (
	"fmt"
	"testing"

	"repro/internal/directory"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestChaosScheduleSoak perturbs the simulator's same-cycle event ordering
// with seeded random tie-breaking and re-runs the randomized soak: the
// protocol's correctness (completion + global invariants) must not depend
// on the engine's default FIFO tie order. This is the schedule-exploration
// testing the formal-verification literature the paper cites [42] argues
// for, in randomized form.
func TestChaosScheduleSoak(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIMAECRC, grouping.MIMATM, grouping.BR} {
		for chaosSeed := uint64(1); chaosSeed <= 6; chaosSeed++ {
			s, chaosSeed := s, chaosSeed
			t.Run(fmt.Sprintf("%v/seed%d", s, chaosSeed), func(t *testing.T) {
				p := DefaultParams(4, s)
				m := NewMachine(p)
				m.Engine.Chaos(chaosSeed)
				rng := sim.NewRNG(chaosSeed * 101)
				for step := 0; step < 100; step++ {
					n := topology.NodeID(rng.Intn(m.Mesh.Nodes()))
					b := directory.BlockID(rng.Intn(8))
					doOp(t, m, rng.Intn(3) == 0, n, b)
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			})
		}
	}
}

// TestChaosConcurrentWriters perturbs tie order under genuinely concurrent
// transactions (the racier regime).
func TestChaosConcurrentWriters(t *testing.T) {
	for chaosSeed := uint64(1); chaosSeed <= 8; chaosSeed++ {
		p := DefaultParams(8, grouping.MIMAEC)
		p.Net.VCTDeferred = true
		m := NewMachine(p)
		m.Engine.Chaos(chaosSeed)
		const b = 17
		for _, c := range []topology.Coord{{X: 1, Y: 5}, {X: 6, Y: 6}, {X: 4, Y: 0}, {X: 2, Y: 3}} {
			doOp(t, m, false, m.Mesh.ID(c), b)
		}
		writers := []topology.NodeID{nodeAt(m, 7, 7), nodeAt(m, 0, 0), nodeAt(m, 7, 0)}
		done := 0
		for _, w := range writers {
			m.Write(w, b, func() { done++ })
		}
		m.Engine.Run()
		if done != len(writers) {
			t.Fatalf("seed %d: %d/%d writes completed\n%s",
				chaosSeed, done, len(writers), m.Net.Diagnose())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", chaosSeed, err)
		}
		if e := m.DirEntry(b); e.State != directory.Exclusive {
			t.Fatalf("seed %d: final state %v", chaosSeed, e.State)
		}
	}
}

// TestChaosUnderFaults combines chaos tie-breaking with deterministic fault
// injection: 102 seeded fault schedules (3 schemes x 34 seeds) of worm
// drops, lost acks, link stalls and router slowdowns, under which every
// operation must still complete (via i-ack timeout retries and MI->UI
// unicast fallback), the network must quiesce, the global coherence
// invariants must hold at every quiescent point, and the liveness watchdog
// must never fire (recovery, not the watchdog, is the survival mechanism —
// a firing means a genuine wedge).
func TestChaosUnderFaults(t *testing.T) {
	schemes := []grouping.Scheme{grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC}
	seedsPerScheme := uint64(34) // 3 x 34 = 102 fault schedules
	minDrops, minRetries := uint64(100), uint64(50)
	if testing.Short() {
		// Trimmed soak for the race-detector CI job: fewer schedules, with
		// the too-tame thresholds scaled to match.
		seedsPerScheme, minDrops, minRetries = 8, 20, 10
	}
	var totalDrops, totalRetries uint64
	for _, s := range schemes {
		for seed := uint64(1); seed <= seedsPerScheme; seed++ {
			s, seed := s, seed
			t.Run(fmt.Sprintf("%v/fault%d", s, seed), func(t *testing.T) {
				p := DefaultParams(4, s)
				p.Recovery = DefaultRecovery()
				p.Recovery.MaxRetries = 32
				p.Fault = faults.New(faults.Config{
					Seed:             sim.DeriveSeed(0xFA147, seed),
					DropRate:         0.2,
					AckLossRate:      0.1,
					LinkStallRate:    0.05,
					LinkStallCycles:  64,
					RouterSlowRate:   0.05,
					RouterSlowCycles: 16,
				})
				m := NewMachine(p)
				m.Net.StartWatchdog(p.Recovery.Timeout<<8, 3, func(w *network.Wedge) {
					t.Fatalf("liveness watchdog fired under recoverable faults: %v", w)
				})
				m.Engine.Chaos(seed)
				rng := sim.NewRNG(seed * 131)
				for step := 0; step < 40; step++ {
					n := topology.NodeID(rng.Intn(m.Mesh.Nodes()))
					b := directory.BlockID(rng.Intn(6))
					// doOp asserts completion and quiescence for every
					// transaction, retried or not.
					doOp(t, m, rng.Intn(2) == 0, n, b)
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				totalDrops += m.Net.Stats().Dropped
				totalRetries += m.Metrics.Retries
			})
		}
	}
	// The soak is only meaningful if the schedules actually hurt: with a
	// 0.2 drop rate across 102 runs, hundreds of worms must have died and
	// the recovery machinery must have been driven hard.
	if totalDrops < minDrops || totalRetries < minRetries {
		t.Fatalf("fault schedules too tame: %d drops, %d retries across all runs",
			totalDrops, totalRetries)
	}
}

// TestWatchdogQuietFaultFree runs a fault-free soak with recovery armed and
// an aggressive watchdog: neither the watchdog nor the retry machinery may
// trigger when nothing is actually wrong.
func TestWatchdogQuietFaultFree(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIMAEC} {
		p := DefaultParams(4, s)
		p.Recovery = DefaultRecovery()
		m := NewMachine(p)
		fired := false
		m.Net.StartWatchdog(512, 4, func(*network.Wedge) { fired = true })
		rng := sim.NewRNG(uint64(s) + 7)
		for step := 0; step < 30; step++ {
			n := topology.NodeID(rng.Intn(m.Mesh.Nodes()))
			doOp(t, m, rng.Intn(3) == 0, n, directory.BlockID(rng.Intn(6)))
		}
		if fired || m.Net.WatchdogFired() {
			t.Fatalf("%v: watchdog fired spuriously on a fault-free run", s)
		}
		if m.Metrics.Retries != 0 {
			t.Fatalf("%v: fault-free run recorded %d retries", s, m.Metrics.Retries)
		}
		st := m.Net.Stats()
		if st.Dropped != 0 || st.Aborted != 0 || st.LostAcks != 0 {
			t.Fatalf("%v: fault-free run recorded fabric faults: %+v", s, st)
		}
	}
}

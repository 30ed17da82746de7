package oracle

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/sim"
)

// genOps builds a deterministic contention-heavy workload: every node
// issues count operations over a small block set (block 0 is hot), writes
// on roughly a third of them, with fences sprinkled in under release
// consistency.
func genOps(seed uint64, nodes, blocks, count int, fences bool) []Op {
	rng := sim.NewRNG(seed)
	var ops []Op
	for i := 0; i < count; i++ {
		n := rng.Intn(nodes)
		b := rng.Intn(blocks)
		if rng.Intn(3) == 0 {
			b = 0
		}
		switch {
		case fences && rng.Intn(8) == 0:
			ops = append(ops, Op{Node: n, Kind: OpFence})
		case rng.Intn(3) == 0:
			ops = append(ops, Op{Node: n, Block: b, Kind: OpWrite})
		default:
			ops = append(ops, Op{Node: n, Block: b, Kind: OpRead})
		}
	}
	return ops
}

func requireOK(t *testing.T, res *RunResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("oracle failures:\n%s", res.Report())
	}
}

// TestRunChaosSchedules drives the full machine under chaos tie-breaking
// for the paper's principal schemes and checks the recorded history
// against the sequential-consistency oracle.
func TestRunChaosSchedules(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC, grouping.BR} {
		for seed := uint64(1); seed <= 3; seed++ {
			s, seed := s, seed
			t.Run(s.String(), func(t *testing.T) {
				t.Parallel()
				res, err := Run(RunConfig{
					Width: 3, Height: 3, Scheme: s,
					CacheLines: 4, ChaosSeed: seed,
					Ops:        genOps(seed*31, 9, 6, 120, false),
					CheckEvery: 10,
				})
				requireOK(t, res, err)
				if len(res.History.Commit) == 0 {
					t.Fatal("workload committed no writes; the oracle checked nothing")
				}
			})
		}
	}
}

// TestRunFaultSchedules layers deterministic fault injection (worm drops,
// lost acks, link stalls, router slowdowns) under the SC oracle: recovery
// must mask every fault without ever completing an operation with a stale
// value or firing the liveness watchdog.
func TestRunFaultSchedules(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIMAEC} {
		for seed := uint64(1); seed <= 4; seed++ {
			s, seed := s, seed
			t.Run(s.String(), func(t *testing.T) {
				t.Parallel()
				res, err := Run(RunConfig{
					Width: 3, Height: 3, Scheme: s,
					CacheLines: 4, ChaosSeed: seed,
					Recovery:   true,
					MaxRetries: 32,
					Fault: &faults.Config{
						Seed:             sim.DeriveSeed(0xFA147, seed),
						DropRate:         0.2,
						AckLossRate:      0.1,
						LinkStallRate:    0.05,
						LinkStallCycles:  64,
						RouterSlowRate:   0.05,
						RouterSlowCycles: 16,
					},
					Ops:        genOps(seed*77, 9, 6, 100, false),
					CheckEvery: 10,
					Watchdog:   true,
				})
				requireOK(t, res, err)
			})
		}
	}
}

// TestRunReleaseConsistency exercises the store-buffer path: asynchronous
// writes, coalescing, store-to-load forwarding, and fences, checked under
// the weaker fence-only program order.
func TestRunReleaseConsistency(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run("seed", func(t *testing.T) {
			t.Parallel()
			res, err := Run(RunConfig{
				Width: 3, Height: 3, Scheme: grouping.MIMAECRC,
				Consistency: coherence.ReleaseConsistency,
				CacheLines:  4, ChaosSeed: seed,
				Ops:        genOps(seed*13, 9, 6, 120, true),
				CheckEvery: 10,
			})
			requireOK(t, res, err)
			if res.History.PO != POFence {
				t.Fatalf("release-consistency run checked under %v program order", res.History.PO)
			}
		})
	}
}

// TestRunUnboundedCache covers the no-eviction regime (CacheLines = 0).
func TestRunUnboundedCache(t *testing.T) {
	res, err := Run(RunConfig{
		Width: 2, Height: 2, Scheme: grouping.MIUAEC,
		ChaosSeed: 5,
		Ops:       genOps(99, 4, 4, 80, false),
	})
	requireOK(t, res, err)
}

// TestRunDeterministic requires byte-identical reports for identical
// configurations — the property the fuzzer's replay mode depends on.
func TestRunDeterministic(t *testing.T) {
	cfg := RunConfig{
		Width: 3, Height: 3, Scheme: grouping.MIMAEC,
		CacheLines: 4, ChaosSeed: 7,
		Recovery:   true,
		MaxRetries: 32,
		Fault: &faults.Config{
			Seed:            0xBEEF,
			DropRate:        0.15,
			AckLossRate:     0.1,
			LinkStallRate:   0.05,
			LinkStallCycles: 32,
		},
		Ops:        genOps(1234, 9, 6, 90, false),
		CheckEvery: 10,
		Watchdog:   true,
	}
	a, errA := Run(cfg)
	requireOK(t, a, errA)
	b, errB := Run(cfg)
	requireOK(t, b, errB)
	if a.Report() != b.Report() {
		t.Fatalf("reports differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.Report(), b.Report())
	}
}

// TestRunConfigValidation pins the harness's config guard rails.
func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(RunConfig{Width: 1, Height: 1, Scheme: grouping.UIUA}); err == nil {
		t.Error("1x1 mesh accepted")
	}
	if _, err := Run(RunConfig{Width: 2, Height: 2, Scheme: grouping.UIUA,
		Fault: &faults.Config{Seed: 1}}); err == nil {
		t.Error("faults without recovery accepted")
	}
	if _, err := Run(RunConfig{Width: 2, Height: 2, Scheme: grouping.UIUA,
		Ops: []Op{{Node: 9, Block: 0, Kind: OpRead}}}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := Run(RunConfig{Width: 2, Height: 2, Scheme: grouping.UIUA,
		Ops: []Op{{Node: 0, Kind: OpFence}}}); err == nil {
		t.Error("fence under sequential consistency accepted")
	}
}

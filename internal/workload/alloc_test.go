package workload

import (
	"runtime"
	"testing"

	"repro/internal/grouping"
)

// invalAllocsPerTxn returns the heap allocations one invalidation
// transaction of cfg costs in steady state: the Mallocs difference between
// a 220-trial and a 20-trial run, over the 200 extra trials. The longer run
// repeats the shorter one's trials first, so machine construction and
// warm-up cancel out. It also returns the mean request worms per
// transaction.
func invalAllocsPerTxn(cfg InvalConfig) (allocs, worms float64) {
	run := func(trials int) uint64 {
		cfg.Trials = trials
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		worms = RunInval(cfg).Groups
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	short := run(20)
	long := run(220)
	return float64(long-short) / 200, worms
}

// TestInvalAllocsPerTxn is the write path's allocation ratchet. A
// transaction recycles its plan, its payloads and itself, the request and
// the grant are pooled messages, cache lines and directory entries come
// from shared slabs, and worms and their buffers are pooled, so what a
// steady-state transaction still allocates is amortized growth: the
// machine's records of every transaction and every block it has seen (the
// invalidation log, the latency sample, the directory and ownership maps).
// The bound is one constant, with no term in k, scheme, d or worm count.
func TestInvalAllocsPerTxn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 108 invalidation sweeps")
	}
	const maxAllocsPerTxn = 3
	for _, k := range []int{16, 32} {
		for _, s := range grouping.AllSchemes {
			for _, d := range []int{4, 16, 64} {
				allocs, worms := invalAllocsPerTxn(InvalConfig{K: k, Scheme: s, D: d, Seed: 7})
				t.Logf("k=%d %-10v d=%-2d allocs/txn %4.1f  worms %5.1f", k, s, d, allocs, worms)
				if allocs > maxAllocsPerTxn {
					t.Errorf("k=%d %v d=%d: %.1f allocations per transaction, want <= %d",
						k, s, d, allocs, maxAllocsPerTxn)
				}
			}
		}
	}
}

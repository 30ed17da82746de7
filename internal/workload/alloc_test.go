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

// TestInvalAllocsPerTxn is the write path's allocation ratchet. An
// invalidation transaction allocates one message per request worm (a
// multicast payload is aliased by every delivery, so it is not pooled) and
// the set-up allocates one cache line per sharer (the line's first touch).
// Everything else is a fixed count: the transaction, its group arena and
// group slice, the new block's directory entry and the write's grant
// closures. The one term that still follows d is the growth of the sharers'
// cache line maps, which a 200-trial window amortises only in part; it is
// bounded here at 3/8 of an allocation per sharer.
func TestInvalAllocsPerTxn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 108 invalidation sweeps")
	}
	const (
		invalAllocsFixed = 24    // per transaction, at any d
		lineMapGrowth    = 0.375 // per sharer: the cache maps' amortised growth
	)
	for _, k := range []int{16, 32} {
		for _, s := range grouping.AllSchemes {
			for _, d := range []int{4, 16, 64} {
				allocs, worms := invalAllocsPerTxn(InvalConfig{K: k, Scheme: s, D: d, Seed: 7})
				rest := allocs - worms - float64(d)
				t.Logf("k=%d %-10v d=%-2d allocs/txn %6.1f  worms %5.1f  remainder %5.1f", k, s, d, allocs, worms, rest)
				if limit := invalAllocsFixed + lineMapGrowth*float64(d); rest > limit {
					t.Errorf("k=%d %v d=%d: %.1f allocations per transaction beyond one per worm and one per sharer, want <= %.1f",
						k, s, d, rest, limit)
				}
			}
		}
	}
}

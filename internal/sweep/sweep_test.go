package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

// testPoints builds n trivial 4x4 UI-UA points.
func testPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Index: i, K: 4, Scheme: grouping.UIUA, D: 2, Trials: 2, Seed: uint64(i) + 1}
	}
	return pts
}

func TestRunValidatesPoints(t *testing.T) {
	bad := testPoints(2)
	bad[1].Index = 5
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Fatal("misnumbered point accepted")
	}
	bad = testPoints(1)
	bad[0].Trials = 0
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Fatal("zero-trial point accepted")
	}
	bad = testPoints(1)
	bad[0].Trials = 1
	bad[0].HotSpot = &HotSpot{Writers: 2}
	bad[0].App = "LU"
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Fatal("a point that is both a burst and a replay accepted")
	}
	bad[0].App = ""
	bad[0].Trials = 2
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Fatal("a two-trial burst accepted")
	}
	for name, mutate := range map[string]func(*Point){
		"a traffic run that is also a replay": func(p *Point) { p.App = "LU" },
		"a two-trial traffic run":             func(p *Point) { p.Trials = 2 },
		"a traffic run with an i-ack depth":   func(p *Point) { p.Tune = &coherence.Variant{IAckBuffers: 8} },
		"a traffic run under chaos":           func(p *Point) { p.ChaosSeed = 7 },
		"a traffic run with sharers":          func(p *Point) { p.D = 3 },
		"a traffic run with a placement":      func(p *Point) { p.Pattern = workload.RowPlacement },
		"a traffic run with VCT":              func(p *Point) { p.Tune = &coherence.Variant{VCTDeferred: true} },
		"a traffic run with a scheme":         func(p *Point) { p.Scheme = grouping.MIMATM },
	} {
		bad = []Point{{K: 4, Trials: 1, Seed: 1, OfferedLoad: 10}}
		mutate(&bad[0])
		if _, err := Run(context.Background(), bad, Options{}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	off, corner := topology.NodeID(16), topology.NodeID(0)
	for name, mutate := range map[string]func(*Point){
		"no sharers":             func(p *Point) { p.D = 0 },
		"more sharers than fit":  func(p *Point) { p.D = 15 },
		"a burst with no room":   func(p *Point) { p.Trials, p.HotSpot = 1, &HotSpot{Writers: 2}; p.D = 15 },
		"a home off the mesh":    func(p *Point) { p.Home = &off },
		"an unknown scheme":      func(p *Point) { p.Scheme = 42 },
		"scheme 9 (was ADAPT)":   func(p *Point) { p.Scheme = 9 },
		"scheme 10 (was U-tree)": func(p *Point) { p.Scheme = 10 },
		"a negative i-ack depth": func(p *Point) { p.Tune = &coherence.Variant{IAckBuffers: -1} },
		"release consistency on an invalidation point": func(p *Point) {
			p.Tune = &coherence.Variant{Consistency: coherence.ReleaseConsistency}
		},
		"release consistency on a burst": func(p *Point) {
			p.Trials, p.HotSpot = 1, &HotSpot{Writers: 2}
			p.Tune = &coherence.Variant{Consistency: coherence.ReleaseConsistency}
		},
		"release consistency on a homed point": func(p *Point) {
			p.Home, p.Tune = &corner, &coherence.Variant{Consistency: coherence.ReleaseConsistency}
		},
		"a replay under an unknown consistency": func(p *Point) {
			p.Trials, p.D, p.Seed, p.App = 1, 0, 0, "LU"
			p.Tune = &coherence.Variant{Consistency: coherence.ReleaseConsistency + 1}
		},
		"a burst with no writers":                        func(p *Point) { p.Trials, p.HotSpot = 1, &HotSpot{} },
		"a burst with more writers than the mesh places": func(p *Point) { p.Trials, p.HotSpot = 1, &HotSpot{Writers: 14} },
	} {
		bad = testPoints(1)
		mutate(&bad[0])
		if _, err := Run(context.Background(), bad, Options{}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// A burst or replay with a field its runner ignores would be stored
	// under a fingerprint its result does not depend on, and a replay
	// apps.Run cannot run would panic on a worker. Check refuses both
	// before anything runs; the unmutated burst and replay pass.
	burst := Point{K: 8, Scheme: grouping.MIMAEC, D: 6, Trials: 1, Seed: 1, HotSpot: &HotSpot{Writers: 4}}
	replay := Point{K: 4, Scheme: grouping.MIMAEC, Trials: 1, App: "LU"}
	for name, base := range map[string]Point{"burst": burst, "replay": replay} {
		if err := base.Check(); err != nil {
			t.Fatalf("the plain %s refused: %v", name, err)
		}
	}
	drops := &faults.Config{DropRate: 0.2, Seed: 9}
	for name, bad := range map[string]Point{
		"a burst under chaos":                with(burst, func(p *Point) { p.ChaosSeed = 99 }),
		"a burst with faults":                with(burst, func(p *Point) { p.Faults = drops }),
		"a burst with a pattern":             with(burst, func(p *Point) { p.Pattern = workload.RowPlacement }),
		"a replay with sharers":              with(replay, func(p *Point) { p.D = 6 }),
		"a replay with a pattern":            with(replay, func(p *Point) { p.Pattern = workload.RowPlacement }),
		"a replay with a seed":               with(replay, func(p *Point) { p.Seed = 1 }),
		"a replay under chaos":               with(replay, func(p *Point) { p.ChaosSeed = 99 }),
		"a replay with faults":               with(replay, func(p *Point) { p.Faults = drops }),
		"a replay on too few nodes":          with(replay, func(p *Point) { p.K = 2 }),
		"a replay of an unknown application": with(replay, func(p *Point) { p.App = "Nope" }),
		// A negative side squares to a mesh the D check accepts; a 0x0
		// mesh and a negative rate reach the traffic generator's panics.
		"a mesh of side -4":       {K: -4, Scheme: grouping.UIUA, D: 2, Trials: 1},
		"a 0x0 traffic mesh":      {Scheme: grouping.UIUA, Trials: 1, OfferedLoad: 1},
		"a negative offered load": {K: 4, Scheme: grouping.UIUA, Trials: 1, OfferedLoad: -5},
	} {
		if bad.Check() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// with returns a copy of p changed by mutate.
func with(p Point, mutate func(*Point)) Point {
	mutate(&p)
	return p
}

func TestRunAllPointsOnce(t *testing.T) {
	pts := testPoints(7)
	var calls atomic.Int64
	sum, err := Run(context.Background(), pts, Options{
		Parallel: 3,
		RunPoint: func(ctx context.Context, p Point) (Measures, *metrics.Collector) {
			calls.Add(1)
			m := Measures{HomeMsgs: float64(p.Index), Completed: p.Trials}
			return m, metrics.NewCollector(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 7 || sum.Completed != 7 || sum.Partial != 0 {
		t.Fatalf("calls=%d completed=%d partial=%d", calls.Load(), sum.Completed, sum.Partial)
	}
	for i, r := range sum.Results {
		if !r.Ran || r.Point.Index != i || r.Measures.HomeMsgs != float64(i) {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}

func TestRunRealPointsMatchSequential(t *testing.T) {
	pts := Grid(GridConfig{
		Ks: []int{4}, Schemes: []grouping.Scheme{grouping.UIUA, grouping.MIMAEC},
		Ds: []int{2, 4}, Trials: 2, BaseSeed: 42,
	})
	seq, err := Run(context.Background(), pts, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), pts, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		a, err := json.Marshal(seq.Results[i].Measures)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(par.Results[i].Measures)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("point %d differs:\n%s\nvs\n%s", i, a, b)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	pts := testPoints(50)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	sum, err := Run(ctx, pts, Options{
		Parallel: 2,
		RunPoint: func(ctx context.Context, p Point) (Measures, *metrics.Collector) {
			if calls.Add(1) == 3 {
				cancel()
			}
			if ctx.Err() != nil {
				// Model a point interrupted mid-run: fewer trials than asked.
				return Measures{Completed: p.Trials - 1}, nil
			}
			return Measures{Completed: p.Trials}, nil
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum.Completed >= len(pts) {
		t.Fatalf("cancellation did not skip any points (completed %d)", sum.Completed)
	}
	for _, r := range sum.Results {
		if r.Ran && r.Measures.Completed < r.Point.Trials && !r.Partial {
			t.Fatalf("interrupted point not marked partial: %+v", r)
		}
	}
}

func TestRunPointTimeoutMarksPartial(t *testing.T) {
	pts := testPoints(3)
	sum, err := Run(context.Background(), pts, Options{
		Parallel:     1,
		PointTimeout: 10 * time.Millisecond,
		RunPoint: func(ctx context.Context, p Point) (Measures, *metrics.Collector) {
			if p.Index == 1 {
				// A slow point: observes its deadline and stops early.
				<-ctx.Done()
				return Measures{Completed: 1}, nil
			}
			return Measures{Completed: p.Trials}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Partial != 1 || !sum.Results[1].Partial {
		t.Fatalf("timeout not marked partial: %+v", sum.Results[1])
	}
	// The slow point must not have poisoned its neighbors.
	if sum.Results[0].Partial || sum.Results[2].Partial || sum.Completed != 3 {
		t.Fatalf("timeout leaked into other points: %+v", sum)
	}
}

func TestGridDerivesDistinctSeeds(t *testing.T) {
	pts := Grid(GridConfig{
		Ks: []int{4, 8}, Schemes: grouping.AllSchemes, Ds: []int{1, 2, 4},
		Trials: 1, BaseSeed: 3, Chaos: true,
	})
	if len(pts) != 2*len(grouping.AllSchemes)*3 {
		t.Fatalf("grid size %d", len(pts))
	}
	seeds := map[uint64]bool{}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d misnumbered", i)
		}
		if seeds[p.Seed] {
			t.Fatalf("duplicate derived seed at %d", i)
		}
		if p.ChaosSeed == 0 || p.ChaosSeed == p.Seed {
			t.Fatalf("chaos seed not independently derived at %d", i)
		}
		seeds[p.Seed] = true
	}
	// Derivation is a pure function: the same grid derives the same seeds.
	again := Grid(GridConfig{
		Ks: []int{4, 8}, Schemes: grouping.AllSchemes, Ds: []int{1, 2, 4},
		Trials: 1, BaseSeed: 3, Chaos: true,
	})
	for i := range pts {
		if pts[i].Seed != again[i].Seed || pts[i].ChaosSeed != again[i].ChaosSeed {
			t.Fatalf("seed derivation not stable at %d", i)
		}
	}
}

func TestEachCoversAllIndices(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		hits := make([]atomic.Int64, 100)
		Each(par, len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("parallel=%d: index %d hit %d times", par, i, hits[i].Load())
			}
		}
	}
	Each(4, 0, func(int) { t.Fatal("fn called for empty range") })
}

// TestWorkerPanicReachesTheCaller: a panic in a pool goroutine of Each or Run
// is re-raised on the calling goroutine — where a recover can see it — after
// the other cells have run, rather than killing the process from a goroutine
// nobody can guard.
func TestWorkerPanicReachesTheCaller(t *testing.T) {
	caught := func(fn func()) (v any) {
		defer func() { v = recover() }()
		fn()
		return nil
	}
	for _, par := range []int{1, 4} {
		var ran atomic.Int64
		v := caught(func() {
			Each(par, 20, func(i int) {
				if i == 3 {
					panic("cell 3 is cursed")
				}
				ran.Add(1)
			})
		})
		if v != "cell 3 is cursed" {
			t.Fatalf("Each parallel=%d: recovered %v; want the cell's panic", par, v)
		}
		if par > 1 && ran.Load() != 19 {
			t.Fatalf("Each parallel=%d: %d other cells ran; want 19", par, ran.Load())
		}
	}
	v := caught(func() {
		_, _ = Run(context.Background(), testPoints(8), Options{
			Parallel: 4,
			RunPoint: func(ctx context.Context, p Point) (Measures, *metrics.Collector) {
				if p.Index == 5 {
					panic("point 5 is cursed")
				}
				return Measures{Completed: p.Trials}, nil
			},
		})
	})
	if v != "point 5 is cursed" {
		t.Fatalf("Run: recovered %v; want the point runner's panic", v)
	}
}

package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sweep"
)

// lab runs the experiments on run (nil = the bare engine) on two workers
// under ctx.
func lab(ctx context.Context, run func(context.Context, sweep.Point) (sweep.Measures, *metrics.Collector)) experiments.Lab {
	return experiments.Lab{Ctx: ctx, Sweep: sweep.Options{Parallel: 2, RunPoint: run}}
}

// render concatenates the named experiments' tables at k=8, d sharers,
// trials=2.
func render(t *testing.T, l experiments.Lab, d int, names ...string) string {
	t.Helper()
	var b strings.Builder
	for _, name := range names {
		tab, err := l.Run(name, 8, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.String())
	}
	return b.String()
}

// direct renders the named experiments at d=16 on the bare engine.
func direct(t *testing.T, names ...string) string {
	t.Helper()
	return render(t, lab(context.Background(), nil), 16, names...)
}

// openRunner opens a store runner over the result directory dir.
func openRunner(t *testing.T, dir string) *storeRunner {
	t.Helper()
	store, err := service.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &storeRunner{store: store}
}

// TestDataRerunRunsNothing: a second run over the same -data directory runs
// no point and prints the tables the bare engine prints: default machines and
// variants, homed transactions, hot-spot bursts, application replays and
// traffic runs alike. d is 6 because E12's one-consumption-channel cell
// wedges at k=8, d=16.
func TestDataRerunRunsNothing(t *testing.T) {
	names := []string{"latency", "torus", "limdir",
		"buffers", "hotspot", "homes", "cons", "vcs", "occupancy", "table6", "apps", "sharing",
		"load", "invalsize"}
	const d = 6
	want := render(t, lab(context.Background(), nil), d, names...)
	dir := t.TempDir()

	first := openRunner(t, dir)
	if got := render(t, lab(context.Background(), first.run), d, names...); got != want {
		t.Fatalf("first -data run differs from the bare engine:\n%s\nvs\n%s", got, want)
	}
	if first.runs.Load() == 0 {
		t.Fatal("the first run over an empty directory ran nothing")
	}

	second := openRunner(t, dir)
	var got strings.Builder
	for _, name := range names {
		hits := second.hits.Load()
		got.WriteString(render(t, lab(context.Background(), second.run), d, name))
		if second.hits.Load() == hits || second.runs.Load() != 0 {
			t.Errorf("rerun of %s: %d points from the store, %d run; want some and none",
				name, second.hits.Load()-hits, second.runs.Load())
		}
	}
	if got.String() != want {
		t.Fatalf("rerun differs from the first run:\n%s\nvs\n%s", got.String(), want)
	}
	if second.hits.Load() != first.hits.Load()+first.runs.Load() {
		t.Fatalf("rerun served %d points; the first run resolved %d", second.hits.Load(), first.hits.Load()+first.runs.Load())
	}
}

// TestSharedPointRunsOnce: a figure's cells that an earlier figure computed
// come from the store. The torus figure's mesh cells are E4 latency points,
// so after latency only its 12 torus cells run; E23 and Table 6 replay six of
// E9's UI-UA and MI-MA-ec cells, so after them E9 runs only its other 6; and
// E17 reads Table 6's three replays, so after it E17 runs nothing.
func TestSharedPointRunsOnce(t *testing.T) {
	cases := []struct {
		first, then      []string
		wantHit, wantRun int64
	}{
		{[]string{"latency"}, []string{"torus"}, 12, 12},
		{[]string{"sharing", "table6"}, []string{"apps"}, 6, 6},
		{[]string{"table6"}, []string{"invalsize"}, 3, 0},
	}
	for _, c := range cases {
		r := &storeRunner{store: service.NewMemoryStore(0)}
		l := lab(context.Background(), r.run)
		render(t, l, 16, c.first...)
		hit, ran := r.hits.Load(), r.runs.Load()
		render(t, l, 16, c.then...)
		if hits, runs := r.hits.Load()-hit, r.runs.Load()-ran; hits != c.wantHit || runs != c.wantRun {
			t.Errorf("%v after %v: %d points from the store, %d run; want %d and %d",
				c.then, c.first, hits, runs, c.wantHit, c.wantRun)
		}
	}
}

// TestInterruptedRerunIsByteIdentical: a run cancelled mid-sweep has stored
// the points it completed; the rerun runs only the rest and prints the
// uninterrupted tables.
func TestInterruptedRerunIsByteIdentical(t *testing.T) {
	want := direct(t, "latency")
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := openRunner(t, dir)
	l := lab(ctx, func(pctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
		if cut.runs.Load() == 20 {
			cancel()
		}
		return cut.run(pctx, p)
	})
	l.Sweep.Parallel = 1
	if render(t, l, 16, "latency") == want {
		t.Fatal("the cancelled run printed the full tables")
	}

	rerun := openRunner(t, dir)
	if got := render(t, lab(context.Background(), rerun.run), 16, "latency"); got != want {
		t.Fatalf("rerun after an interrupt differs from an uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if hits, runs := rerun.hits.Load(), rerun.runs.Load(); hits != 20 || hits+runs != 63 {
		t.Fatalf("rerun: %d points from the store, %d run; want the 20 completed before the interrupt and 43 run", hits, runs)
	}
}

// TestTorusTwinsAreDistinctEntries: a mesh cell and its torus twin differ only
// in their machine variant, and each gets its own store entry.
func TestTorusTwinsAreDistinctEntries(t *testing.T) {
	store := service.NewMemoryStore(0)
	r := &storeRunner{store: store}
	render(t, lab(context.Background(), r.run), 16, "torus")
	if n, _ := store.Len(); n != 24 || r.runs.Load() != 24 {
		t.Fatalf("torus figure: %d store entries after %d runs; want one per cell, 24", n, r.runs.Load())
	}
	mesh := sweep.Point{K: 8, Scheme: grouping.MIMAEC, D: 16, Trials: 2, Seed: 16 + 7}
	torus := mesh
	torus.Tune = &coherence.Variant{Torus: true}
	mm, meshOK, _ := store.Get(mesh.Fingerprint())
	tm, torusOK, _ := store.Get(torus.Fingerprint())
	if !meshOK || !torusOK || reflect.DeepEqual(mm, tm) {
		t.Fatalf("mesh stored %v, torus stored %v; want two different results", meshOK, torusOK)
	}
}

// TestQuarantinedPointsAreNotStored: a point that blows its budget twice is
// quarantined and never stored, so the next run re-attempts it.
func TestQuarantinedPointsAreNotStored(t *testing.T) {
	want := direct(t, "torus")
	store := service.NewMemoryStore(0)
	r := &storeRunner{store: store}
	l := lab(context.Background(), r.run)
	l.Sweep.PointTimeout = time.Nanosecond
	render(t, l, 16, "torus")
	if n, _ := store.Len(); n != 0 {
		t.Fatalf("%d timed-out points were stored", n)
	}
	l.Sweep.PointTimeout = 0
	ran := r.runs.Load()
	if got := render(t, l, 16, "torus"); got != want {
		t.Fatalf("rerun after the timeouts differs from the bare engine:\n%s\nvs\n%s", got, want)
	}
	if runs := r.runs.Load() - ran; runs != 24 {
		t.Fatalf("the rerun ran %d points; want all 24 re-attempted", runs)
	}
}

// TestCorruptResultIsLoud: a damaged result file stops the run with an error
// naming its fingerprint; it is never served and never silently rerun.
func TestCorruptResultIsLoud(t *testing.T) {
	dir := t.TempDir()
	render(t, lab(context.Background(), openRunner(t, dir).run), 16, "limdir")
	p := sweep.Point{K: 8, Scheme: grouping.BR, D: 6, Trials: 5, Seed: 1, Tune: &coherence.Variant{DirPointers: 4}}
	fp := p.Fingerprint()
	if err := os.WriteFile(filepath.Join(dir, "results", fp+".json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := lab(context.Background(), openRunner(t, dir).run).Run("limdir", 8, 16, 2)
	if tab != nil || err == nil || !strings.Contains(err.Error(), fp) {
		t.Fatalf("rerun over a corrupt entry: err %v; want no table and an error naming %s", err, fp)
	}
}

// TestStaleReplayIsLoud: a replay stored before AppMeasures carried its
// sharer histogram has transactions but no histogram. E17 refuses it with an
// error naming the application and the entry, rather than printing zeros.
func TestStaleReplayIsLoud(t *testing.T) {
	store := service.NewMemoryStore(0)
	lu := sweep.Point{K: 4, Scheme: grouping.UIUA, Trials: 1, App: "LU"}
	stale := sweep.Measures{Completed: 1, App: &sweep.AppMeasures{
		Time: 285250, Invals: 267, AvgSharers: 4.5, MaxSharers: 14, Reads: 9968, Writes: 3808, Barriers: 48,
	}}
	if err := store.Put(lu.Fingerprint(), stale); err != nil {
		t.Fatal(err)
	}
	r := &storeRunner{store: store}
	tab, err := lab(context.Background(), r.run).Run("invalsize", 8, 16, 2)
	if tab != nil || err == nil || !strings.Contains(err.Error(), "LU") || !strings.Contains(err.Error(), lu.Fingerprint()) {
		t.Fatalf("invalsize over a stale LU replay: err %v; want no table and an error naming LU and %s", err, lu.Fingerprint())
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/service"
	"repro/internal/sweep"
)

// bare renders the named experiments at k=8, d sharers, trials=2 on the
// bare engine, each table as experiment prints it.
func bare(t *testing.T, d int, names ...string) string {
	t.Helper()
	var b strings.Builder
	for _, name := range names {
		tab, err := experiments.Lab{Sweep: sweep.Options{Parallel: 2}}.Run(name, 8, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.String() + "\n")
	}
	return b.String()
}

// inProcess renders the named experiments at k=8, d sharers, trials=2 the
// way dsmsimctl experiment does without -addr, on a service built from cfg
// (two workers unless cfg sets them), and returns what it printed on stdout,
// how many points came from the store and how many ran.
func inProcess(t *testing.T, ctx context.Context, cfg service.Config, d int, names ...string) (out string, hits, runs int, err error) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	var stdout, stderr bytes.Buffer
	req := service.ExperimentRequest{K: 8, D: d, Trials: 2}
	err = experimentInProcess(ctx, cfg, req, names, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	if _, serr := fmt.Sscanf(lines[len(lines)-1], "dsmsimctl experiment: %d points from the store, %d run", &hits, &runs); serr != nil {
		t.Fatalf("no tally line in %q: %v", stderr.String(), serr)
	}
	return stdout.String(), hits, runs, err
}

// mustInProcess is inProcess under the background context, failing t on
// an error.
func mustInProcess(t *testing.T, cfg service.Config, d int, names ...string) (out string, hits, runs int) {
	t.Helper()
	out, hits, runs, err := inProcess(t, context.Background(), cfg, d, names...)
	if err != nil {
		t.Fatal(err)
	}
	return out, hits, runs
}

// dirStore opens the result store over the directory dir.
func dirStore(t *testing.T, dir string) service.ResultStore {
	t.Helper()
	store, err := service.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestDataRerunRunsNothing: a second run over the same -data directory runs
// no point and prints the tables the bare engine prints: default machines and
// variants, homed transactions, hot-spot bursts, application replays and
// traffic runs alike, at d=consD.
func TestDataRerunRunsNothing(t *testing.T) {
	names := []string{"latency",
		"buffers", "hotspot", "homes", "cons", "occupancy", "table6", "apps", "sharing",
		"load", "invalsize"}
	const d = consD
	want := bare(t, d, names...)
	dir := t.TempDir()

	got, hits, runs := mustInProcess(t, service.Config{Store: dirStore(t, dir)}, d, names...)
	if got != want {
		t.Fatalf("first -data run differs from the bare engine:\n%s\nvs\n%s", got, want)
	}
	if runs == 0 {
		t.Fatal("the first run over an empty directory ran nothing")
	}

	var rerun strings.Builder
	served := 0
	for _, name := range names {
		out, h, r := mustInProcess(t, service.Config{Store: dirStore(t, dir)}, d, name)
		if h == 0 || r != 0 {
			t.Errorf("rerun of %s: %d points from the store, %d run; want some and none", name, h, r)
		}
		rerun.WriteString(out)
		served += h
	}
	if rerun.String() != want {
		t.Fatalf("rerun differs from the first run:\n%s\nvs\n%s", rerun.String(), want)
	}
	if served != hits+runs {
		t.Fatalf("rerun served %d points; the first run resolved %d", served, hits+runs)
	}
}

// TestSharedPointRunsOnce: a figure's cells that an earlier figure computed
// come from the store. E5's cells are E4's latency points, so after latency
// E5 runs nothing; E23 and Table 6 replay six of
// E9's UI-UA and MI-MA-ec cells, so after them E9 runs only its other 6; E17
// reads Table 6's three replays, so after it E17 runs nothing.
func TestSharedPointRunsOnce(t *testing.T) {
	cases := []struct {
		first, then      []string
		wantHit, wantRun int
	}{
		{[]string{"latency"}, []string{"homemsgs"}, 63, 0},
		{[]string{"sharing", "table6"}, []string{"apps"}, 6, 6},
		{[]string{"table6"}, []string{"invalsize"}, 3, 0},
	}
	for _, c := range cases {
		cfg := service.Config{Store: service.NewMemoryStore(0)}
		mustInProcess(t, cfg, 16, c.first...)
		if _, hits, runs := mustInProcess(t, cfg, 16, c.then...); hits != c.wantHit || runs != c.wantRun {
			t.Errorf("%v after %v: %d points from the store, %d run; want %d and %d",
				c.then, c.first, hits, runs, c.wantHit, c.wantRun)
		}
	}
}

// TestInterruptedRerunIsByteIdentical: a run cancelled mid-sweep has stored
// the points it completed; the rerun runs only the rest and prints the
// uninterrupted tables. The cancel lands while the 21st engine run is on a
// worker, so that run may or may not finish before the drain cuts it off.
func TestInterruptedRerunIsByteIdentical(t *testing.T) {
	want := bare(t, 16, "latency")
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	engine := func(pctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
		if started.Add(1) == 21 {
			cancel()
		}
		return sweep.RunPointDirect(pctx, p)
	}
	cut, _, _, err := inProcess(t, ctx, service.Config{Workers: 1, Store: dirStore(t, dir), RunPoint: engine}, 16, "latency")
	if err != nil {
		t.Fatal(err)
	}
	if cut == want {
		t.Fatal("the cancelled run printed the full tables")
	}
	stored, err := dirStore(t, dir).Len()
	if err != nil {
		t.Fatal(err)
	}

	got, hits, runs := mustInProcess(t, service.Config{Store: dirStore(t, dir)}, 16, "latency")
	if got != want {
		t.Fatalf("rerun after an interrupt differs from an uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if hits < 20 || hits != stored || hits+runs != 63 {
		t.Fatalf("rerun: %d points from the store, %d run; want the %d stored before the interrupt (at least 20) and the rest of 63 run",
			hits, runs, stored)
	}
}

// consD is the sharer count the E12 tests run at: E12's
// one-consumption-channel cell wedges at k=8, d=16.
const consD = 6

// consBurst is one cell of E12 at k=8, d=consD: a burst of four MI-MA-ec
// writers on a VCT machine with c consumption channels.
func consBurst(c int) sweep.Point {
	return sweep.Point{K: 8, Scheme: grouping.MIMAEC, D: consD, Trials: 1, Seed: 1,
		HotSpot: &sweep.HotSpot{Writers: 4, OverlapSharers: true, DistinctHomes: true},
		Tune:    &coherence.Variant{ConsumptionChannels: c, VCTDeferred: true}}
}

// TestVariantTwinsAreDistinctEntries: two E12 cells differ only in their
// machine variant, and each gets its own store entry.
func TestVariantTwinsAreDistinctEntries(t *testing.T) {
	store := service.NewMemoryStore(0)
	_, _, runs := mustInProcess(t, service.Config{Store: store}, consD, "cons")
	if n, _ := store.Len(); n != 4 || runs != 4 {
		t.Fatalf("cons figure: %d store entries after %d runs; want one per cell, 4", n, runs)
	}
	one, two := consBurst(1), consBurst(2)
	om, oneOK, _ := store.Get(one.Fingerprint())
	tm, twoOK, _ := store.Get(two.Fingerprint())
	if !oneOK || !twoOK || reflect.DeepEqual(om, tm) {
		t.Fatalf("1-channel burst stored %v, 2-channel burst stored %v; want two different results", oneOK, twoOK)
	}
}

// TestTimedOutPointsAreNotStored: a point that overruns its budget is
// partial and never stored, so the next run re-attempts it.
func TestTimedOutPointsAreNotStored(t *testing.T) {
	want := bare(t, consD, "cons")
	store := service.NewMemoryStore(0)
	mustInProcess(t, service.Config{Store: store, DefaultTimeout: time.Nanosecond}, consD, "cons")
	if n, _ := store.Len(); n != 0 {
		t.Fatalf("%d timed-out points were stored", n)
	}
	got, _, runs := mustInProcess(t, service.Config{Store: store}, consD, "cons")
	if got != want {
		t.Fatalf("rerun after the timeouts differs from the bare engine:\n%s\nvs\n%s", got, want)
	}
	if runs != 4 {
		t.Fatalf("the rerun ran %d points; want all 4 re-attempted", runs)
	}
}

// TestWedgedPointNamesItsWedge: E12's one-consumption-channel cell wedges
// at k=8, d=16. The command exits 1 with an error that names the cell's
// fingerprint and wraps its *network.Wedge: 4 writes unfinished and 33 worms
// in flight, each with what it waits for.
func TestWedgedPointNamesItsWedge(t *testing.T) {
	cell := consBurst(1)
	cell.D = 16
	fp := cell.Fingerprint()
	code, _, errOut := run("experiment", "-name", "cons", "-k", "8", "-d", "16", "-trials", "2")
	if code != 1 || !strings.Contains(errOut, fp) {
		t.Fatalf("exit %d, stderr:\n%s\nwant exit 1 and an error naming %s", code, errOut, fp)
	}
	_, _, _, err := inProcess(t, context.Background(), service.Config{}, 16, "cons")
	var w *network.Wedge
	if !errors.As(err, &w) || !strings.Contains(err.Error(), fp) {
		t.Fatalf("err %v; want one naming %s and wrapping a *network.Wedge", err, fp)
	}
	if w.Unfinished != 4 || w.InFlight != 33 || strings.Count(w.Worms, "\n  worm ") != 33 {
		t.Fatalf("wedge: %d unfinished, %d in flight, worms:\n%s\nwant 4 unfinished and 33 worms listed", w.Unfinished, w.InFlight, w.Worms)
	}
}

// TestCorruptResultIsLoud: a damaged result file stops the run with an error
// naming its fingerprint; it is never served and never silently rerun.
func TestCorruptResultIsLoud(t *testing.T) {
	dir := t.TempDir()
	mustInProcess(t, service.Config{Store: dirStore(t, dir)}, consD, "cons")
	fp := consBurst(2).Fingerprint()
	if err := os.WriteFile(filepath.Join(dir, "results", fp+".json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, _, err := inProcess(t, context.Background(), service.Config{Store: dirStore(t, dir)}, consD, "cons")
	if out != "" || err == nil || !strings.Contains(err.Error(), fp) {
		t.Fatalf("rerun over a corrupt entry: err %v; want no table and an error naming %s", err, fp)
	}
}

// TestStaleReplayIsLoud: a replay stored before AppMeasures carried its
// sharer histogram has transactions but no histogram. E17, which reads the
// histogram, refuses it with an error naming the application and the entry,
// rather than printing zeros.
func TestStaleReplayIsLoud(t *testing.T) {
	store := service.NewMemoryStore(0)
	lu := sweep.Point{K: 4, Scheme: grouping.UIUA, Trials: 1, App: "LU"}
	stale := sweep.Measures{Completed: 1, App: &sweep.AppMeasures{
		Time: 285250, Invals: 267, AvgSharers: 4.5, MaxSharers: 14, Reads: 9968, Writes: 3808, Barriers: 48,
	}}
	if err := store.Put(lu.Fingerprint(), stale); err != nil {
		t.Fatal(err)
	}
	out, _, _, err := inProcess(t, context.Background(), service.Config{Store: store}, 16, "invalsize")
	if out != "" || err == nil || !strings.Contains(err.Error(), "LU") || !strings.Contains(err.Error(), lu.Fingerprint()) {
		t.Fatalf("invalsize over a stale LU replay: err %v; want no table and an error naming LU and %s", err, lu.Fingerprint())
	}
}

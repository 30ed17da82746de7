//simcheck:allow-file determinism,nogoroutine -- smoke-tests the benchmark driver, which times wall-clock windows and drives client goroutines by design

package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/sim"
)

// smoke is the -scale 0.01 run of every workload, untraced and traced, with
// the layer probes run once; the tests below share it.
type smokeRun struct {
	plain, traced *runResult
}

var (
	smokeCache  map[string]smokeRun
	smokeProbes *probes
)

func smoke(t *testing.T) map[string]smokeRun {
	t.Helper()
	if smokeCache != nil {
		return smokeCache
	}
	dir, err := benchDir()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	c := config{seed: 1, scale: 0.01, dir: dir}
	pr, err := runProbes(c)
	if err != nil {
		t.Fatalf("probes: %v", err)
	}
	out := map[string]smokeRun{}
	for _, def := range workloads {
		plain, win, err := runPlain(def, c, 1, pinSet{}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		traced := *plain
		if err := runTraced(def, c, &traced, win, pr, io.Discard); err != nil {
			t.Fatalf("%s traced: %v", def.name, err)
		}
		out[def.name] = smokeRun{plain: plain, traced: &traced}
	}
	smokeCache, smokeProbes = out, pr
	return out
}

func TestSmokeEmitsEveryDeclaredMetricOnce(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for name, run := range smoke(t) {
		// render fails on a declared name that was not measured and on a
		// measured name that was not declared: exactly once, both ways.
		e2e, err := run.plain.metrics.render(endToEnd)
		if err != nil {
			t.Errorf("%s untraced: %v", name, err)
		}
		if _, err := run.traced.metrics.render(perLayer); err != nil {
			t.Errorf("%s traced: %v", name, err)
		}
		for metric, v := range e2e {
			if !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, metric, v.Value)
			}
		}
		for _, r := range []*runResult{run.plain, run.traced} {
			if r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s: failed %d of %d attempted", name, r.failed, r.attempted)
			}
			if r.drift != 0 {
				t.Errorf("%s: sim_drift %d: %v", name, r.drift, r.why)
			}
		}
		if v := run.traced.metrics["bench.attrib_residual_share"]; math.IsNaN(v) {
			t.Errorf("%s: residual is NaN", name)
		}
	}
}

func TestSimDriftFiresOnPerturbedPin(t *testing.T) {
	c := config{seed: 1, scale: 0.01}
	stats := smoke(t)["inval-sweep"].plain.sim
	if len(stats) == 0 {
		t.Fatal("inval-sweep reported no simulated statistics")
	}
	win := &window{sim: stats}
	clone := func() map[string]float64 {
		m := make(map[string]float64, len(stats))
		for k, v := range stats {
			m[k] = v
		}
		return m
	}
	key := sortedKeys(stats)[0]

	exact := pinSet{"inval-sweep": {Seed: 1, Scale: 0.01, Stats: clone()}}
	if n, pinned, why := exact.drift("inval-sweep", c, win); n != 0 || !pinned {
		t.Fatalf("identical pin: drift %d pinned %v %v", n, pinned, why)
	}
	perturbed := clone()
	perturbed[key] = math.Nextafter(perturbed[key], math.Inf(1))
	if n, _, _ := (pinSet{"inval-sweep": {Seed: 1, Scale: 0.01, Stats: perturbed}}).drift("inval-sweep", c, win); n != 1 {
		t.Errorf("one statistic moved by one ulp: drift %d, want 1", n)
	}
	missing := clone()
	delete(missing, key)
	missing["no/such/point"] = 1
	if n, _, _ := (pinSet{"inval-sweep": {Seed: 1, Scale: 0.01, Stats: missing}}).drift("inval-sweep", c, win); n != 2 {
		t.Errorf("one key unpinned and one pinned key unmeasured: drift %d, want 2", n)
	}
	// A pin for another seed or scale gates nothing but the invariants.
	if n, pinned, _ := (pinSet{"inval-sweep": {Seed: 2, Scale: 0.01, Stats: perturbed}}).drift("inval-sweep", c, win); n != 0 || pinned {
		t.Errorf("pin of another seed: drift %d pinned %v, want 0 false", n, pinned)
	}
	broken := &window{sim: stats, broken: []string{"Injected != Delivered"}}
	if n, _, _ := exact.drift("inval-sweep", c, broken); n != 1 {
		t.Errorf("violated invariant: drift %d, want 1", n)
	}
}

// checkSpanTree asserts the parent links of one traced window and returns how
// many service.engine spans it holds.
func checkSpanTree(t *testing.T, name string, spans []span) (engines int) {
	t.Helper()
	if len(spans) < 2 {
		t.Errorf("%s: %d spans", name, len(spans))
		return 0
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", name, s.ID, s.Name)
		}
		// Spans are numbered in begin order and a child begins after its
		// parent, so a parent link that does not point backwards is a
		// cycle (or a dangling link).
		if s.Parent < 0 || s.Parent >= s.ID {
			t.Errorf("%s: span %d (%s) has parent %d", name, s.ID, s.Name, s.Parent)
		}
	}
	ancestor := func(s span, want string) bool {
		for hops := 0; s.Parent != 0 && hops <= len(spans); hops++ {
			s = spans[s.Parent-1]
			if s.Name == want {
				return true
			}
		}
		return false
	}
	for _, s := range spans {
		switch s.Name {
		case "service.engine":
			engines++
			fallthrough
		case "service.store.get", "service.store.put":
			if !ancestor(s, "bench.request") {
				t.Errorf("%s: %s span %d has no bench.request ancestor", name, s.Name, s.ID)
			}
		case "bench.request", "sweep.point", "workload.RunTraffic", "apps.Run", "coherence.NewMachine":
			if !ancestor(s, "bench.window") {
				t.Errorf("%s: %s span %d is not under bench.window", name, s.Name, s.ID)
			}
		}
	}
	return engines
}

func TestSpansFormATree(t *testing.T) {
	for name, run := range smoke(t) {
		if engines := checkSpanTree(t, name, run.traced.spans); engines != 0 {
			t.Errorf("%s ran the engine %d times; no workload may (README, \"What the benchmark found\")", name, engines)
		}
	}
}

// TestColdDaemonRecordsEngineSpans keeps the Config.RunPoint decorator and
// the service.engine_* / share.engine metrics honest while no workload can
// route an engine run through the daemon: a 16-point daemon that starts with
// an empty store, small enough that the run-queue race (one panic in tens of
// thousands of dispatches) does not matter.
func TestColdDaemonRecordsEngineSpans(t *testing.T) {
	smoke(t) // for the probes
	dir, err := benchDir()
	if err != nil {
		t.Fatal(err)
	}
	c := config{seed: 1, scale: 0.01, dir: dir}
	def := workloadDef{name: "serve-cold", setup: func(c config, traced bool) (prepared, error) {
		return newServe(serveSpec{
			name: "serve-cold", cold: true, universe: 16, requests: 80, jobShare: 1,
			template: load.PointTemplate{K: 8, Scheme: "MI-MA-ec", D: 8, Pattern: "random", Trials: 20},
		}, c, traced)
	}}
	plain, win, err := runPlain(def, c, 1, pinSet{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	traced := *plain
	if err := runTraced(def, c, &traced, win, smokeProbes, io.Discard); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(filepath.Join(dir, "out", "trace-serve-cold.json"))
	if traced.failed != 0 || traced.drift != 0 {
		t.Errorf("failed %d drift %d: %v", traced.failed, traced.drift, traced.why)
	}
	engines := checkSpanTree(t, def.name, traced.spans)
	m := traced.metrics
	if engines == 0 || m["service.engine_runs"] != float64(engines) {
		t.Errorf("%d service.engine spans, service.engine_runs = %v", engines, m["service.engine_runs"])
	}
	if m["service.store_puts"] != float64(engines) {
		t.Errorf("service.store_puts = %v, want one per engine run (%d)", m["service.store_puts"], engines)
	}
	for _, name := range []string{"service.engine_ms_per_run", "service.store_put_us", "share.engine"} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v on a window with engine runs, want > 0", name, m[name])
		}
	}
	if hr := m["service.hit_ratio"]; !(hr > 0 && hr < 1) {
		t.Errorf("service.hit_ratio = %v, want strictly between 0 and 1", hr)
	}
}

func TestSelfTimeExcludesChildCover(t *testing.T) {
	// parent [0,100]; children [10,30], [20,50] (overlapping), [90,120]
	// (clipped): cover = 40 + 10, self = 50.
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	st := analyze(spans)
	if got := st["p"].self; got != 50 {
		t.Errorf("self = %d, want 50", got)
	}
	if got := st["c"]; got.count != 3 || got.total != 80 {
		t.Errorf("children: count %d total %d, want 3 and 80", got.count, got.total)
	}
}

func TestPercentileMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		sample := make([]time.Duration, n)
		for i := range sample {
			sample[i] = time.Duration(rng.Intn(50)) // many ties on purpose
		}
		sorted := sortedCopy(sample)
		if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
			t.Fatal("sortedCopy did not sort")
		}
		for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
			// Brute force: the smallest sample value v such that more than
			// p*n of the sample is <= v (the maximum when none is).
			want := time.Duration(-1)
			for _, v := range sample {
				atOrBelow := 0
				for _, u := range sample {
					if u <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) > p*float64(n) && (want < 0 || v < want) {
					want = v
				}
			}
			if want < 0 {
				want = sorted[n-1]
			}
			if got := percentile(sorted, p); got != want {
				t.Fatalf("n=%d p=%v: percentile %d, brute force %d", n, p, got, want)
			}
		}
	}
}

// TestBenchmarkJSONMirrorsTheCode keeps the root BENCHMARK.json, which later
// issues cite by name, equal to what the program declares.
func TestBenchmarkJSONMirrorsTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the work sizes are nominal at %d", doc.RunSeconds, nominalSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code's declarations")
	}
}

package load

//simcheck:allow-file determinism,nogoroutine -- integration tests drive a live self-hosted daemon

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// startTestDaemon self-hosts a daemon on an ephemeral port and tears it
// down with the test.
func startTestDaemon(t *testing.T, cfg service.Config) *service.Daemon {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = service.NewMemoryStore(0)
	}
	d, err := service.StartDaemon(service.DaemonConfig{Service: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
		if err := d.Err(); err != nil {
			t.Errorf("daemon serve loop: %v", err)
		}
	})
	return d
}

// warm runs one job over the whole universe, so a load run that follows is
// served from the cache.
func warm(t *testing.T, d *service.Daemon, u *Universe) {
	t.Helper()
	jr := service.JobRequest{ID: "warmup", Points: u.Specs}
	if err := NewClient(d.BaseURL()).Submit(context.Background(), jr, Wait, nil); err != nil {
		t.Fatal(err)
	}
}

// testRun drives one schedule against the daemon and verifies it.
func testRun(t *testing.T, d *service.Daemon, schedule []Request, u *Universe, prefix string, clients int) (*Result, *Verification) {
	t.Helper()
	res, err := Run(context.Background(), Config{
		BaseURL:   d.BaseURL(),
		Schedule:  schedule,
		Universe:  u,
		Clients:   clients,
		JobPrefix: prefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := NewClient(d.BaseURL()).Get(context.Background(), "/v1/metrics", &csv); err != nil {
		t.Fatal(err)
	}
	v := Verify(res, csv.String())
	for _, f := range v.Failures {
		t.Errorf("verify: %s", f)
	}
	return res, v
}

// TestRunDeterministicCountersWarm is the acceptance criterion: against a
// warm daemon, two runs of the same schedule produce identical client-side
// counters, every point a cache hit, and both reconcile against the
// server's CSV and stats.
func TestRunDeterministicCountersWarm(t *testing.T) {
	d := startTestDaemon(t, service.Config{Workers: 2})
	u, err := NewUniverse(DefaultTemplate(), 11, 6)
	if err != nil {
		t.Fatal(err)
	}
	warm(t, d, u)
	schedule, err := GenSchedule(ScheduleConfig{Seed: 11, Requests: 80, Universe: 6})
	if err != nil {
		t.Fatal(err)
	}

	res1, _ := testRun(t, d, schedule, u, "det1", 4)
	res2, _ := testRun(t, d, schedule, u, "det2", 4)
	if res1.Counters != res2.Counters {
		t.Fatalf("counters differ across identical warm runs:\n%+v\n%+v", res1.Counters, res2.Counters)
	}
	if res1.EngineRuns != 0 || res1.Coalesced != 0 {
		t.Fatalf("warm run still ran the engine: %+v", res1.Counters)
	}
	if res1.CacheHits != res1.PointsServed || res1.PointsServed == 0 {
		t.Fatalf("warm run not all cache hits: %+v", res1.Counters)
	}
	if res1.ResultMisses != 0 {
		t.Fatalf("warm run missed %d result fetches", res1.ResultMisses)
	}
	if res1.Errors != 0 || res1.Shed != 0 {
		t.Fatalf("unexpected errors/sheds: %+v", res1.Counters)
	}
	// Every request got a latency observation.
	if res1.Overall.N() != len(schedule) {
		t.Fatalf("histogram saw %d observations for %d requests", res1.Overall.N(), len(schedule))
	}
}

// TestRunColdReconciles: a cold run exercises real engine runs and
// coalescing; the source breakdown must still reconcile exactly and dedup
// must hold (zero duplicate runs).
func TestRunColdReconciles(t *testing.T) {
	d := startTestDaemon(t, service.Config{Workers: 2})
	u, err := NewUniverse(DefaultTemplate(), 23, 4)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := GenSchedule(ScheduleConfig{
		Seed: 23, Requests: 40, Universe: 4, Mix: Mix{Run: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, v := testRun(t, d, schedule, u, "cold", 8)
	if !v.OK() {
		t.Fatalf("cold run did not reconcile: %v", v.Failures)
	}
	if res.EngineRuns == 0 {
		t.Fatal("cold run never hit the engine")
	}
	if res.EngineRuns > 4 {
		t.Fatalf("%d engine runs for a 4-point universe (dedup broken)", res.EngineRuns)
	}
	if got := res.CacheHits + res.Coalesced + res.EngineRuns; got != res.PointsServed {
		t.Fatalf("sources %d != points served %d", got, res.PointsServed)
	}
	if v.ServerDelta.DuplicateRuns != 0 {
		t.Fatalf("%d duplicate runs", v.ServerDelta.DuplicateRuns)
	}
}

// TestRunOpenLoop: the open-loop pacer issues every request and verifies.
func TestRunOpenLoop(t *testing.T) {
	d := startTestDaemon(t, service.Config{Workers: 2})
	u, err := NewUniverse(DefaultTemplate(), 31, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm(t, d, u)
	schedule, err := GenSchedule(ScheduleConfig{Seed: 31, Requests: 60, Universe: 4, RPS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := testRun(t, d, schedule, u, "open", 0)
	if res.Overall.N() != len(schedule) {
		t.Fatalf("open loop issued %d of %d requests", res.Overall.N(), len(schedule))
	}
}

// TestRunConfigValidation: bad configs fail before any traffic.
func TestRunConfigValidation(t *testing.T) {
	u, err := NewUniverse(DefaultTemplate(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	schedule := []Request{{Seq: 0, Kind: KindRun, Point: 0}}
	for name, cfg := range map[string]Config{
		"empty schedule": {BaseURL: "http://127.0.0.1:1", Universe: u, JobPrefix: "x"},
		"no universe":    {BaseURL: "http://127.0.0.1:1", Schedule: schedule, JobPrefix: "x"},
		"no prefix":      {BaseURL: "http://127.0.0.1:1", Schedule: schedule, Universe: u},
		"point out of range": {BaseURL: "http://127.0.0.1:1", JobPrefix: "x", Universe: u,
			Schedule: []Request{{Seq: 0, Kind: KindRun, Point: 5}}},
		"experiment without name": {BaseURL: "http://127.0.0.1:1", JobPrefix: "x", Universe: u,
			Schedule: []Request{{Seq: 0, Kind: KindExperiment, Point: 0}}},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestUniverseDeterminism: same (template, seed, size) yields identical
// fingerprints; different seeds do not.
func TestUniverseDeterminism(t *testing.T) {
	a, err := NewUniverse(DefaultTemplate(), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewUniverse(DefaultTemplate(), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Fingerprints {
		if a.Fingerprints[i] != b.Fingerprints[i] {
			t.Fatalf("fingerprint %d differs", i)
		}
	}
	seen := map[string]bool{}
	for _, fp := range a.Fingerprints {
		if seen[fp] {
			t.Fatalf("duplicate fingerprint %s in universe", fp)
		}
		seen[fp] = true
	}
}

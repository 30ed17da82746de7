package service

//simcheck:allow-file nogoroutine -- service tests exercise the serving layer's concurrency

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// testPoint builds a small valid point; variant separates distinct contents.
func testPoint(index, variant int) sweep.Point {
	return sweep.Point{
		Index: index, K: 4, Scheme: 1, D: 2 + variant%10,
		Pattern: 0, Trials: 2, Seed: uint64(100 + variant),
	}
}

// enginePoint is a real, small engine point for end-to-end determinism
// checks (4x4 mesh, 2 sharers, 2 trials — milliseconds of work).
func enginePoint() sweep.Point {
	return sweep.Point{Index: 0, K: 4, Scheme: 1, D: 2, Pattern: 0, Trials: 2, Seed: 7}
}

type engineFunc = func(context.Context, sweep.Point) (sweep.Measures, *metrics.Collector)

// countingEngine is a fake RunPoint that counts executions and returns
// deterministic measures derived from the point, so coalesced and cached
// answers are distinguishable per point but identical within one.
func countingEngine(runs *atomic.Int64) engineFunc {
	return func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
		runs.Add(1)
		return sweep.Measures{
			HomeMsgs:  float64(p.D),
			Messages:  float64(p.Seed),
			Completed: p.Trials,
		}, metrics.NewCollector(p.K * p.K)
	}
}

// gatedEngine holds every run of inner until release is closed (or the
// service cancels the run), which keeps the in-flight window open for as
// long as a test needs to fill it.
func gatedEngine(release <-chan struct{}, inner engineFunc) engineFunc {
	return func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
		select {
		case <-release:
			return inner(ctx, p)
		case <-ctx.Done():
			return sweep.Measures{}, nil
		}
	}
}

// awaitWaiters blocks until the in-flight table holds want waiters in
// total: with the engine gated, that is the moment every client of the test
// has registered and none has been answered.
func awaitWaiters(t *testing.T, svc *Service, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		svc.mu.Lock()
		for _, rn := range svc.inflight {
			got += len(rn.waiters)
		}
		svc.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters in flight; want %d", got, want)
		}
		runtime.Gosched()
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Tests that exercise Drain themselves leave the service already
		// drained; only a fresh drain failing is a test failure.
		if err := svc.Drain(ctx); err != nil && !errors.Is(err, ErrDraining) {
			t.Errorf("Drain: %v", err)
		}
	})
	return svc
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestDeterminismGate is the end-to-end identity the whole service design
// rests on: a fresh direct engine run, a service run, a cache hit, and a
// coalesced result are all byte-identical.
func TestDeterminismGate(t *testing.T) {
	p := enginePoint()
	direct, _ := sweep.RunPointDirect(context.Background(), p)
	want := mustJSON(t, direct)

	release := make(chan struct{})
	svc := newTestService(t, Config{
		Workers: 2, RunPoint: gatedEngine(release, sweep.RunPointDirect),
	})

	// Two concurrent identical submissions: one run + one coalesced.
	var wg sync.WaitGroup
	got := make([]sweep.Measures, 2)
	srcs := make([]Source, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, _, src, err := svc.Resolve(context.Background(), p, 0, "gate")
			if err != nil {
				t.Errorf("Resolve: %v", err)
				return
			}
			got[i], srcs[i] = m, src
		}(i)
	}
	awaitWaiters(t, svc, 2)
	close(release)
	wg.Wait()

	// A third submission after completion: a cache hit.
	cached, _, cachedSrc, err := svc.Resolve(context.Background(), p, 0, "gate")
	if err != nil {
		t.Fatalf("cached Resolve: %v", err)
	}
	if cachedSrc != SourceCache {
		t.Fatalf("post-completion source = %q; want cache", cachedSrc)
	}
	if srcs[0] == srcs[1] {
		t.Fatalf("concurrent sources %q/%q; want one run and one coalesced", srcs[0], srcs[1])
	}
	for i, m := range []sweep.Measures{got[0], got[1], cached} {
		if mustJSON(t, m) != want {
			t.Fatalf("result %d differs from the direct engine run", i)
		}
	}
}

// TestLoadCoalescing is the load gate: 64 concurrent clients over 8
// distinct points, all registered before the engine is let go, must see one
// run per point and everyone else coalesced — exactly 8 engine runs, >= 85%
// hit rate, zero duplicate runs.
func TestLoadCoalescing(t *testing.T) {
	const clients, points = 64, 8
	var runs atomic.Int64
	release := make(chan struct{})
	svc := newTestService(t, Config{
		Workers: 4,
		RunPoint: gatedEngine(release, func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			runs.Add(1)
			return sweep.Measures{Messages: float64(p.Seed), Completed: p.Trials}, nil
		}),
	})

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := testPoint(0, i%points)
			m, _, _, err := svc.Resolve(context.Background(), p, 0, "load")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if m.Messages != float64(100+i%points) {
				t.Errorf("client %d got another point's result", i)
			}
		}(i)
	}
	awaitWaiters(t, svc, clients)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != points {
		t.Fatalf("engine ran %d times for %d distinct points; want exactly %d (zero duplicates)", got, points, points)
	}
	counters := svc.Metrics().Counters()
	if counters.DuplicateRuns != 0 {
		t.Fatalf("DuplicateRuns = %d; want 0", counters.DuplicateRuns)
	}
	if counters.Requests != clients {
		t.Fatalf("Requests = %d; want %d", counters.Requests, clients)
	}
	if counters.Runs != points || counters.Coalesced != clients-points {
		t.Fatalf("runs=%d coalesced=%d; want %d + %d", counters.Runs, counters.Coalesced, points, clients-points)
	}
	if hr := counters.HitRate(); hr < 0.85 {
		t.Fatalf("hit rate %.3f; want >= 0.85 (cache %d + coalesced %d of %d)",
			hr, counters.CacheHits, counters.Coalesced, counters.Requests)
	}
}

// TestCoalescesIdenticalSubmissions is the coalescing contract: N
// concurrent submissions of the identical point produce exactly one engine
// run, one "run" source, and N-1 "coalesced" sources, all with identical
// measures, and the engine's collector goes to the run leader alone.
func TestCoalescesIdenticalSubmissions(t *testing.T) {
	const n = 8
	var runs atomic.Int64
	release := make(chan struct{})
	svc := newTestService(t, Config{
		Workers:  2,
		RunPoint: gatedEngine(release, countingEngine(&runs)),
	})
	p := testPoint(0, 1)

	var wg sync.WaitGroup
	sources := make([]Source, n)
	results := make([]sweep.Measures, n)
	colls := make([]*metrics.Collector, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, coll, src, err := svc.Resolve(context.Background(), p, 0, "t")
			if err != nil {
				t.Errorf("Resolve %d: %v", i, err)
				return
			}
			sources[i], results[i], colls[i] = src, m, coll
		}(i)
	}
	awaitWaiters(t, svc, n)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times; want exactly 1", got)
	}
	var ran, coalesced, collectors int
	for i := 0; i < n; i++ {
		switch sources[i] {
		case SourceRun:
			ran++
		case SourceCoalesced:
			coalesced++
		default:
			t.Fatalf("request %d served from %q", i, sources[i])
		}
		if colls[i] != nil {
			collectors++
		}
		if !measuresEqual(results[i], results[0]) {
			t.Fatalf("request %d got different measures", i)
		}
	}
	if ran != 1 || coalesced != n-1 {
		t.Fatalf("sources: %d run + %d coalesced; want 1 + %d", ran, coalesced, n-1)
	}
	if collectors != 1 {
		t.Fatalf("%d requests received the engine collector; want exactly the run leader", collectors)
	}
	counters, recs := svc.Metrics().Snapshot()
	if counters.DuplicateRuns != 0 {
		t.Fatalf("DuplicateRuns = %d; want 0", counters.DuplicateRuns)
	}
	for _, r := range recs {
		if r.BatchSize != n {
			t.Fatalf("metric row %d has batch_size %d; want %d (requests served by the run)", r.Seq, r.BatchSize, n)
		}
	}
}

// TestDistinctPointsNeverCoalesce: different contents submitted together
// each get their own engine run.
func TestDistinctPointsNeverCoalesce(t *testing.T) {
	const n = 4
	var runs atomic.Int64
	svc := newTestService(t, Config{Workers: 2, RunPoint: countingEngine(&runs)})

	var wg sync.WaitGroup
	sources := make([]Source, n)
	measures := make([]sweep.Measures, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, _, src, err := svc.Resolve(context.Background(), testPoint(0, i), 0, "t")
			if err != nil {
				t.Errorf("Resolve %d: %v", i, err)
				return
			}
			sources[i], measures[i] = src, m
		}(i)
	}
	wg.Wait()

	if got := runs.Load(); got != n {
		t.Fatalf("engine ran %d times for %d distinct points; want %d", got, n, n)
	}
	for i := 0; i < n; i++ {
		if sources[i] != SourceRun {
			t.Fatalf("request %d served from %q; distinct points must each run", i, sources[i])
		}
		if measures[i].Messages != float64(100+i) {
			t.Fatalf("request %d got measures for another point (Messages=%v)", i, measures[i].Messages)
		}
	}
}

// TestJobRunsThroughSweepEngine: a job resolves every point through the
// cache/coalescer while keeping sweep.Run's index-ordered results, and a
// repeated job is served entirely from the cache.
func TestJobRunsThroughSweepEngine(t *testing.T) {
	var runs atomic.Int64
	svc := newTestService(t, Config{
		Workers:  2,
		RunPoint: countingEngine(&runs),
	})
	points := make([]sweep.Point, 4)
	for i := range points {
		points[i] = testPoint(i, i%2) // two distinct contents, each twice
	}
	res, err := svc.RunJob(context.Background(), JobSpec{Points: points}, nil)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if res.Completed != len(points) {
		t.Fatalf("Completed = %d; want %d", res.Completed, len(points))
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("engine ran %d times; want 2 (two distinct contents)", got)
	}
	for i, pr := range res.Results {
		if pr.Index != i {
			t.Fatalf("result %d has index %d; job results must stay index-ordered", i, pr.Index)
		}
		if pr.Fingerprint != points[i].Fingerprint() {
			t.Fatalf("result %d fingerprint mismatch", i)
		}
	}
	if res.Runs+res.CacheHits+res.Coalesced != len(points) {
		t.Fatalf("source breakdown %d+%d+%d does not cover %d points",
			res.Runs, res.CacheHits, res.Coalesced, len(points))
	}

	// The identical job again: nothing runs, everything hits.
	res2, err := svc.RunJob(context.Background(), JobSpec{Points: points}, nil)
	if err != nil {
		t.Fatalf("repeat RunJob: %v", err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("repeat job ran the engine (total %d runs); want all cache hits", got)
	}
	if res2.CacheHits != len(points) {
		t.Fatalf("repeat job CacheHits = %d; want %d", res2.CacheHits, len(points))
	}
	if mustJSON(t, res2.Results[0].Measures) != mustJSON(t, res.Results[0].Measures) {
		t.Fatal("cached job result differs from the original")
	}
}

// TestSubmitValidation: malformed specs are rejected at admission.
func TestSubmitValidation(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	if _, err := svc.Submit(JobSpec{}); err == nil {
		t.Fatal("empty job accepted")
	}
	if _, err := svc.Submit(JobSpec{Points: []sweep.Point{testPoint(1, 0)}}); err == nil {
		t.Fatal("job with misnumbered Index accepted")
	}
	if _, err := svc.Submit(JobSpec{Points: []sweep.Point{testPoint(0, 0)}, Timeout: -time.Second}); err == nil {
		t.Fatal("negative timeout accepted")
	}
}

// durableFiles walks a data directory and fails the test on any file that is
// not one of the two durable artefacts — results/<fingerprint>.json and
// jobs/<id>.json. It returns the job IDs found under jobs/.
func durableFiles(t *testing.T, dir string) []string {
	t.Helper()
	jobs := []string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		sub, name := filepath.Split(rel)
		id, isJSON := strings.CutSuffix(name, ".json")
		switch {
		case sub == "results/" && isJSON && strings.Trim(id, "0123456789abcdef") == "":
		case sub == "jobs/" && isJSON && validJobID(id):
			jobs = append(jobs, id)
		default:
			t.Errorf("data directory holds %s; want only results/*.json and jobs/<id>.json", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	return jobs
}

// TestDrainPersistsAndResumesJobs is the restart-equivalence contract: a
// drain that cuts a job off leaves its spec in jobs/<id>.json and nothing
// else beside the result store, and a new service over the same data
// directory finishes it — with the point that had completed served from the
// store as a cache hit, never re-run.
func TestDrainPersistsAndResumesJobs(t *testing.T) {
	dir := t.TempDir()
	done := func(p sweep.Point) sweep.Measures {
		return sweep.Measures{Messages: float64(p.Seed), Completed: p.Trials}
	}
	disk, err := NewDiskStore(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := New(Config{
		Workers: 1, DataDir: dir, Store: disk,
		RunPoint: func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			if p.Index == 0 {
				return done(p), nil
			}
			// Later points block until cancelled — the job is mid-flight.
			<-ctx.Done()
			return sweep.Measures{}, nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	points := []sweep.Point{testPoint(0, 0), testPoint(1, 1), testPoint(2, 2)}
	id, err := svc1.Submit(JobSpec{ID: "drainy", Points: points})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Wait until point 0 finished (it is in the store) so the drain cuts
	// the job at a known place.
	deadline := time.Now().Add(10 * time.Second)
	fp0 := points[0].Fingerprint()
	for {
		if _, ok, _ := disk.Get(fp0); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("point 0 never reached the store")
		}
		time.Sleep(time.Millisecond)
	}
	if jobs := durableFiles(t, dir); len(jobs) != 1 || jobs[0] != "drainy" {
		t.Fatalf("job files while running = %v; want [drainy]", jobs)
	}

	// Drain with an already-expired grace: cancel immediately.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc1.Drain(expired); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st, ok := svc1.Status(id)
	if !ok || st.State != "failed" {
		t.Fatalf("drained job state = %+v; want interrupted/failed", st)
	}

	// The interrupted job's file must still carry its spec.
	if jobs := durableFiles(t, dir); len(jobs) != 1 || jobs[0] != "drainy" {
		t.Fatalf("job files after the drain = %v; want [drainy]", jobs)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs", "drainy.json"))
	if err != nil {
		t.Fatalf("job file: %v", err)
	}
	var jf jobFile
	if err := json.Unmarshal(data, &jf); err != nil {
		t.Fatalf("job file decode: %v", err)
	}
	if jf.Version != journalVersion || jf.Job.ID != "drainy" || len(jf.Job.Points) != len(points) {
		t.Fatalf("job file = %+v; want the interrupted job's spec", jf)
	}

	// Restart over the same directory with an unblocked engine. The
	// resumed job must finish without re-running point 0.
	var phase2Runs atomic.Int64
	svc2, err := New(Config{
		Workers: 1, DataDir: dir, Store: disk,
		RunPoint: func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			if p.Index == 0 {
				t.Error("resumed job re-ran point 0 despite the stored result")
			}
			phase2Runs.Add(1)
			return done(p), nil
		},
	})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	st2, err := svc2.Wait(wctx, "drainy")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st2.State != "done" || st2.Result == nil {
		t.Fatalf("resumed job state = %+v; want done with a result", st2)
	}
	r0 := st2.Result.Results[0]
	if r0.Source != SourceCache || !measuresEqual(r0.Measures, done(points[0])) {
		t.Fatalf("resumed point 0 = %+v; want the stored measures served as a cache hit", r0)
	}
	if got := phase2Runs.Load(); got != 2 || st2.Result.Runs != 2 || st2.Result.CacheHits != 1 {
		t.Fatalf("restart ran the engine %d times (job: %d runs, %d hits); want 2 runs and 1 hit", got, st2.Result.Runs, st2.Result.CacheHits)
	}
	if c := svc2.Metrics().Counters(); c.DuplicateRuns != 0 {
		t.Fatalf("DuplicateRuns = %d; want 0", c.DuplicateRuns)
	}
	if err := svc2.Drain(context.Background()); err != nil {
		t.Fatalf("final Drain: %v", err)
	}
	// Cleanly finished: jobs/ is empty, results/ holds the three points.
	if jobs := durableFiles(t, dir); len(jobs) != 0 {
		t.Fatalf("job files after a clean finish = %v; want none", jobs)
	}
	if n, _ := disk.Len(); n != len(points) {
		t.Fatalf("store holds %d results; want %d", n, len(points))
	}
}

// blockedService starts a durable service whose engine blocks until the
// service is cancelled, submits one job to it, and drains it with no grace —
// leaving that job's file behind for a restart to resume.
func blockedService(t *testing.T, dir string, spec JobSpec) string {
	t.Helper()
	svc, err := New(Config{
		Workers: 1, DataDir: dir,
		RunPoint: func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			<-ctx.Done()
			return sweep.Measures{}, nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Drain(expired); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return id
}

// TestAutoIDSkipsJobsFromBeforeTheRestart: the ID sequence restarts with the process, so
// the first anonymous submission after a restart that resumed job-000001
// must be given an ID that is not in the table.
func TestAutoIDSkipsJobsFromBeforeTheRestart(t *testing.T) {
	dir := t.TempDir()
	first := blockedService(t, dir, JobSpec{Points: []sweep.Point{testPoint(0, 0)}})
	if first != "job-000001" {
		t.Fatalf("first anonymous job named %q; want job-000001", first)
	}
	var runs atomic.Int64
	svc := newTestService(t, Config{Workers: 1, DataDir: dir, RunPoint: countingEngine(&runs)})
	if _, ok := svc.Status(first); !ok {
		t.Fatalf("restart did not resume %s", first)
	}
	second, err := svc.Submit(JobSpec{Points: []sweep.Point{testPoint(0, 1)}})
	if err != nil {
		t.Fatalf("anonymous Submit after the resume: %v", err)
	}
	if second == first {
		t.Fatalf("anonymous job reused the resumed job's ID %q", second)
	}
	for _, id := range []string{first, second} {
		if st, err := svc.Wait(context.Background(), id); err != nil || st.State != "done" {
			t.Fatalf("job %s: %+v, %v; want done", id, st, err)
		}
	}
}

// TestFailedJournalWriteLeavesNoTrace: a job whose journal file cannot be
// written is refused outright — no table entry stuck in "running" with a
// done channel nobody closes, no accepted-job tick.
func TestFailedJournalWriteLeavesNoTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	svc := newTestService(t, Config{Workers: 1, DataDir: dir})
	// Put a regular file where the data directory was: every write under it
	// now fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(JobSpec{ID: "doomed", Points: []sweep.Point{testPoint(0, 0)}}); err == nil {
		t.Fatal("Submit succeeded although the journal write failed")
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused job left a table entry: %+v", jobs)
	}
	if c := svc.Metrics().Counters(); c.JobsAccepted != 0 {
		t.Fatalf("JobsAccepted = %d after a refused job; want 0", c.JobsAccepted)
	}
}

// TestLegacyJournalRefused: a jobs.json from a build that kept one
// whole-document journal gets no second loader. An empty one (what a clean
// drain of that build leaves) is removed; one that lists jobs stops New with
// the file named in the error.
func TestLegacyJournalRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "jobs.json")
	if err := os.WriteFile(legacy, []byte(`{"version":1,"jobs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{Workers: 1, DataDir: dir})
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if jobs := durableFiles(t, dir); len(jobs) != 0 {
		t.Fatalf("job files = %v; want none", jobs)
	}

	if err := os.WriteFile(legacy, []byte(`{"version":1,"jobs":[{"id":"old","points":[]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workers: 1, DataDir: dir}); err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("New over a non-empty legacy journal: err=%v; want a refusal naming %s", err, legacy)
	}
}

// TestEnginePanicFailsTheJobNotTheService: a panicking engine run fails its
// own job with the panic text, and the service runs the next job normally.
func TestEnginePanicFailsTheJobNotTheService(t *testing.T) {
	svc := newTestService(t, Config{
		Workers: 1,
		RunPoint: func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			if p.D == 3 {
				panic("workload: D=3 is cursed")
			}
			return sweep.Measures{Completed: p.Trials}, nil
		},
	})
	res, err := svc.RunJob(context.Background(), JobSpec{ID: "bad", Points: []sweep.Point{testPoint(0, 1)}}, nil)
	if err == nil || !strings.Contains(err.Error(), "D=3 is cursed") {
		t.Fatalf("panicking job: res=%+v err=%v; want the panic text", res, err)
	}
	if st, _ := svc.Status("bad"); st.State != "failed" || !strings.Contains(st.Error, "D=3 is cursed") {
		t.Fatalf("panicking job status = %+v; want failed with the panic text", st)
	}
	res, err = svc.RunJob(context.Background(), JobSpec{ID: "good", Points: []sweep.Point{testPoint(0, 0)}}, nil)
	if err != nil || res.Completed != 1 {
		t.Fatalf("job after the panic: res=%+v err=%v; want it to complete", res, err)
	}
}

// TestJobTableRetention: the table keeps the jobRetention most recently
// finished jobs; the oldest beyond that answers like an unknown ID.
func TestJobTableRetention(t *testing.T) {
	var runs atomic.Int64
	svc := newTestService(t, Config{Workers: 1, RunPoint: countingEngine(&runs)})
	for i := 0; i <= jobRetention; i++ {
		if _, err := svc.RunJob(context.Background(), JobSpec{Points: []sweep.Point{testPoint(0, 0)}}, nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if got := len(svc.Jobs()); got != jobRetention {
		t.Fatalf("%d jobs listed after %d finished; want %d", got, jobRetention+1, jobRetention)
	}
	if _, ok := svc.Status("job-000001"); ok {
		t.Fatal("the oldest finished job is still in the table")
	}
	if _, ok := svc.Status("job-000002"); !ok {
		t.Fatal("the second-oldest finished job was evicted too")
	}
}

// TestQueueFullShedsLoad: a full run queue rejects new work instead of
// queueing unboundedly.
func TestQueueFullShedsLoad(t *testing.T) {
	q := newRunQueue(2)
	if err := q.push(&run{seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.push(&run{seq: 2}); err != nil {
		t.Fatal(err)
	}
	if err := q.push(&run{seq: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third push on depth-2 queue: err=%v; want ErrQueueFull", err)
	}
}

// TestQueuePriorityOrder: higher priority pops first; FIFO within equal
// priority.
func TestQueuePriorityOrder(t *testing.T) {
	q := newRunQueue(8)
	q.push(&run{fp: "low", priority: 0, seq: 0})
	q.push(&run{fp: "hi", priority: 5, seq: 1})
	q.push(&run{fp: "low2", priority: 0, seq: 2})
	order := []string{}
	for i := 0; i < 3; i++ {
		order = append(order, q.pop().fp)
	}
	want := []string{"hi", "low", "low2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v; want %v", order, want)
		}
	}
}

// TestDrainFailsQueuedRuns: a drain that finds runs still waiting for a
// worker answers every one of their waiters with ErrDraining and leaves the
// queue empty.
func TestDrainFailsQueuedRuns(t *testing.T) {
	started := make(chan struct{}, 1)
	svc, err := New(Config{
		Workers: 1,
		// The one run that reaches the engine stays there until the drain
		// cancels it.
		RunPoint: func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			started <- struct{}{}
			<-ctx.Done()
			return sweep.Measures{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(variant int, out chan<- error) {
		go func() {
			_, _, _, err := svc.Resolve(context.Background(), testPoint(0, variant), 0, "drain")
			out <- err
		}()
	}
	busy := make(chan error, 1)
	resolve(0, busy)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first point")
	}
	// Behind the busy worker: two waiters sharing one queued run, and a
	// second queued run with one.
	queued := make(chan error, 3)
	resolve(1, queued)
	resolve(1, queued)
	resolve(2, queued)
	awaitWaiters(t, svc, 4)
	if d := svc.QueueDepth(); d != 2 {
		t.Fatalf("queue depth %d before the drain; want 2", d)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Drain(expired); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i := 0; i < cap(queued); i++ {
		select {
		case err := <-queued:
			if !errors.Is(err, ErrDraining) {
				t.Fatalf("queued waiter %d: err=%v; want ErrDraining", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("queued waiter %d never answered", i)
		}
	}
	if err := <-busy; err != nil {
		t.Fatalf("the run the drain cancelled: err=%v; want its partial result", err)
	}
	if d := svc.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after the drain; want 0", d)
	}
}

// TestDrainingRejectsSubmissions: after Drain begins, new jobs fail with
// ErrDraining.
func TestDrainingRejectsSubmissions(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := svc.Submit(JobSpec{Points: []sweep.Point{testPoint(0, 0)}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain: err=%v; want ErrDraining", err)
	}
	if _, _, _, err := svc.Resolve(context.Background(), testPoint(0, 0), 0, ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("Resolve after drain: err=%v; want ErrDraining", err)
	}
}

// TestFollowerOutlivesItsLeadersDeadline: a run lasts while any request
// waits for it, not only the one that started it. A job with a 100 ms
// timeout leads the run of a point; a job with no timeout, on a service with
// no default, joins that run while it is queued (behind a run holding the
// one worker) or after it has started. The leader's point times out and is
// partial; the follower's completes, on the one engine run, and is stored.
// The engine completes a run only if its context is still live when the
// test releases it.
func TestFollowerOutlivesItsLeadersDeadline(t *testing.T) {
	for _, started := range []bool{false, true} {
		release, began := make(chan struct{}), make(chan struct{}, 2)
		svc := newTestService(t, Config{
			Workers: 1,
			RunPoint: func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
				began <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
				}
				if ctx.Err() != nil {
					return sweep.Measures{}, nil
				}
				return sweep.RunPointDirect(ctx, p)
			},
		})
		job := func(timeout time.Duration) <-chan *JobResult {
			out := make(chan *JobResult, 1)
			go func() {
				res, err := svc.RunJob(context.Background(), JobSpec{Points: []sweep.Point{enginePoint()}, Timeout: timeout}, nil)
				if err != nil {
					t.Error(err)
				}
				out <- res
			}()
			return out
		}
		waiters := 0
		if !started {
			// The one worker stays busy with another point until release.
			go svc.Resolve(context.Background(), testPoint(0, 5), 0, "blocker")
			<-began
			waiters++
		}
		leader := job(100 * time.Millisecond)
		if started {
			<-began
		}
		awaitWaiters(t, svc, waiters+1)
		follower := job(0)
		awaitWaiters(t, svc, waiters+2)
		if res := <-leader; res.Completed != 0 || !res.Results[0].Partial {
			t.Fatalf("started=%v: leader completed %d, partial %v; want its point partial",
				started, res.Completed, res.Results[0].Partial)
		}
		close(release)
		if res := <-follower; res.Completed != 1 || res.Results[0].Partial {
			t.Fatalf("started=%v: follower completed %d, partial %v; want its point completed",
				started, res.Completed, res.Results[0].Partial)
		}
		if _, ok, err := svc.Store().Get(enginePoint().Fingerprint()); !ok || err != nil {
			t.Fatalf("started=%v: point not stored (err %v)", started, err)
		}
		// Unread starts: the queued run's; the started one's was read.
		if n := len(began); n != waiters {
			t.Fatalf("started=%v: %d unread engine starts; want %d, one run for both jobs", started, n, waiters)
		}
	}
}

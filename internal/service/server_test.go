package service

//simcheck:allow-file nogoroutine -- httptest drives the daemon's serving stack

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sweep"
)

// newTestDaemon stands up a full daemon stack — service and HTTP handler.
func newTestDaemon(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, cfg)
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// startDaemon starts a daemon the way dsmsimctl serve and load do, from its
// service config alone, and shuts it down with the test.
func startDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := StartDaemon(DaemonConfig{Service: cfg})
	if err != nil {
		t.Fatalf("StartDaemon: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// A test that drained the daemon itself leaves it drained.
		if err := d.Shutdown(ctx); err != nil && !errors.Is(err, ErrDraining) {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return d
}

// directTable renders an experiment as the bare engine's Lab.Run does.
func directTable(t *testing.T, name string, d int) *report.Table {
	t.Helper()
	tab, err := experiments.Lab{}.Run(name, 8, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestExperimentEndpointByteIdentical is the serving contract for whole
// experiments: the daemon's table equals the batch CLI's output
// (table.String()+"\n") byte for byte — for a default-machine grid, for
// grids whose points carry a machine variant (consumption channels),
// homed transactions, hot-spot bursts, application replays and traffic runs —
// and a repeat request is byte-identical again and served from the store
// without one engine run. E12 runs at d=6: its one-consumption-channel cell
// wedges at k=8, d=16.
func TestExperimentEndpointByteIdentical(t *testing.T) {
	for _, c := range []struct {
		name string
		d    int
	}{
		{"latency", 16}, {"cons", 6}, {"hotspot", 16}, {"homes", 16}, {"occupancy", 16},
		{"apps", 16}, {"load", 16}, {"invalsize", 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The batch CLI's rendering: the experiment run with the direct engine.
			direct := directTable(t, c.name, c.d).String() + "\n"

			_, ts := newTestDaemon(t, Config{Workers: 4})
			req := ExperimentRequest{Name: c.name, K: 8, D: c.d, Trials: 2}
			resp, body := postJSON(t, ts.URL+"/v1/experiments", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("experiment: %s: %s", resp.Status, body)
			}
			if string(body) != direct {
				t.Fatalf("daemon table differs from the direct CLI table:\n--- daemon ---\n%s--- direct ---\n%s", body, direct)
			}
			runs := engineRuns(t, ts.URL)
			if runs == 0 {
				t.Fatal("the first call ran no point through the service")
			}

			resp2, body2 := postJSON(t, ts.URL+"/v1/experiments", req)
			if resp2.StatusCode != http.StatusOK || !bytes.Equal(body2, body) {
				t.Fatalf("repeated experiment not byte-identical (status %s)", resp2.Status)
			}
			if again := engineRuns(t, ts.URL); again != runs {
				t.Fatalf("the repeat ran the engine %d times; want every point from the store", again-runs)
			}
		})
	}
}

// counters reads the daemon's counters from /v1/stats.
func counters(t *testing.T, base string) Counters {
	t.Helper()
	resp, body := getBody(t, base+"/v1/stats")
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("stats: %s: %s (%v)", resp.Status, body, err)
	}
	return stats.Counters
}

// engineRuns reads the daemon's engine-run counter from /v1/stats.
func engineRuns(t *testing.T, base string) uint64 {
	t.Helper()
	return counters(t, base).Runs
}

// latencyGrid is the number of distinct points of the E4 latency experiment.
var latencyGrid = uint64(len(experiments.SharerCounts) * len(experiments.CompareSchemes))

// TestExperimentRunsThroughItsOwnService: a daemon started from its service
// config alone serves experiments through that service — the first request
// runs each point of the grid once, and an identical second one runs nothing
// and takes every point from the store.
func TestExperimentRunsThroughItsOwnService(t *testing.T) {
	d := startDaemon(t, Config{Workers: 4})
	req := ExperimentRequest{Name: "latency", K: 8, Trials: 2}
	resp, first := postJSON(t, d.BaseURL()+"/v1/experiments", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment: %s: %s", resp.Status, first)
	}
	c1 := counters(t, d.BaseURL())
	if c1.Runs != latencyGrid {
		t.Fatalf("the first request ran %d points; want the grid's %d", c1.Runs, latencyGrid)
	}
	resp, second := postJSON(t, d.BaseURL()+"/v1/experiments", req)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("repeat: %s; want the same table", resp.Status)
	}
	c2 := counters(t, d.BaseURL())
	if c2.Runs != c1.Runs || c2.CacheHits-c1.CacheHits != latencyGrid {
		t.Fatalf("the repeat ran %d points and hit the store %d times; want 0 and %d", c2.Runs-c1.Runs, c2.CacheHits-c1.CacheHits, latencyGrid)
	}
}

// TestDrainCutsOffExperimentWithAnError: draining a daemon while an
// experiment's points wait on the engine answers the experiment with a 5xx
// and no table — never a 200 with cells nobody measured.
func TestDrainCutsOffExperimentWithAnError(t *testing.T) {
	release := make(chan struct{}) // never closed: every run waits for the drain
	d := startDaemon(t, Config{Workers: 2, RunPoint: gatedEngine(release, sweep.RunPointDirect)})
	type reply struct {
		code int
		body string
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(d.BaseURL()+"/v1/experiments", "application/json",
			strings.NewReader(`{"name":"latency","k":8,"trials":2}`))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		replies <- reply{code: resp.StatusCode, body: string(body), err: err}
	}()
	// The lab's two sweep workers each wait on a run a service worker holds.
	awaitWaiters(t, d.Service(), 2)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	// The HTTP phase gives up on the open experiment when ctx ends; the
	// drain then cancels its runs and refuses the points still to come.
	_ = d.Shutdown(ctx)
	select {
	case r := <-replies:
		t.Logf("the drained experiment answered %d: %s", r.code, r.body)
		if r.err != nil || r.code/100 != 5 || strings.Contains(r.body, "E4:") {
			t.Fatalf("experiment cut off by a drain: %d %q (err %v); want a 5xx and no table", r.code, r.body, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the experiment never answered after the drain")
	}
}

// TestTwoDaemonsServeExperiments: two daemons in one process each serve
// experiments through their own service and store.
func TestTwoDaemonsServeExperiments(t *testing.T) {
	daemons := []*Daemon{startDaemon(t, Config{Workers: 2}), startDaemon(t, Config{Workers: 2})}
	for i, d := range daemons {
		resp, body := postJSON(t, d.BaseURL()+"/v1/experiments", ExperimentRequest{Name: "latency", K: 8, Trials: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("daemon %d: %s: %s", i, resp.Status, body)
		}
		if runs := engineRuns(t, d.BaseURL()); runs != latencyGrid {
			t.Errorf("daemon %d ran %d points; want its own grid of %d", i, runs, latencyGrid)
		}
		if n, _ := d.Service().Store().Len(); uint64(n) != latencyGrid {
			t.Errorf("daemon %d stored %d points; want %d", i, n, latencyGrid)
		}
	}
}

// TestOversizedBodyIsRefused: a POST body one byte over the bound is a 413
// on both decoding endpoints and moves no counter; a body at the bound is
// decoded (and refused for what it says).
func TestOversizedBodyIsRefused(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 1})
	_, before := getBody(t, ts.URL+"/v1/stats")
	for _, c := range []struct{ path, prefix string }{
		{"/v1/jobs?wait=1", `{"points":[],"id":"`},
		{"/v1/experiments", `{"name":"`},
	} {
		for size, want := range map[int]int{
			maxBodyBytes:     http.StatusBadRequest,
			maxBodyBytes + 1: http.StatusRequestEntityTooLarge,
		} {
			body := c.prefix + strings.Repeat("x", size-len(c.prefix)-2) + `"}`
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s with a %d-byte body: %s: %.200s; want %d", c.path, len(body), resp.Status, msg, want)
			}
		}
	}
	if _, after := getBody(t, ts.URL+"/v1/stats"); !bytes.Equal(after, before) {
		t.Fatalf("refused bodies moved the stats:\n%s\nbefore\n%s", after, before)
	}
}

// failingStore is a result store whose every Get fails.
type failingStore struct{ ResultStore }

func (failingStore) Get(string) (sweep.Measures, bool, error) {
	return sweep.Measures{}, false, errors.New("disk on fire")
}

// TestExperimentEndpointReportsTheFailure: when a point cannot be resolved,
// the 500 names the error the service hit, not a generic "no result".
func TestExperimentEndpointReportsTheFailure(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 1, Store: failingStore{NewMemoryStore(0)}})
	resp, body := postJSON(t, ts.URL+"/v1/experiments", ExperimentRequest{Name: "latency", K: 8, Trials: 1})
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "disk on fire") {
		t.Fatalf("experiment over a failing store: %s: %s; want a 500 naming the store error", resp.Status, body)
	}
}

// TestExperimentEndpointCSV: the CSV rendering matches the CLI's -csv
// output for the same experiment.
func TestExperimentEndpointCSV(t *testing.T) {
	direct := directTable(t, "latency", 16).CSV()
	_, ts := newTestDaemon(t, Config{Workers: 4})
	resp, body := postJSON(t, ts.URL+"/v1/experiments", ExperimentRequest{Name: "latency", K: 8, Trials: 2, CSV: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment: %s: %s", resp.Status, body)
	}
	if string(body) != direct {
		t.Fatalf("daemon CSV differs from the CLI CSV")
	}
}

// TestExperimentEndpointUnknownName: bad names and sizes no mesh has are a
// 400, not a panic.
func TestExperimentEndpointUnknownName(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 1})
	for _, req := range []ExperimentRequest{
		{Name: "nope"},
		{Name: "latency", K: 1},
		{Name: "latency", K: 8, D: -1},
		{Name: "latency", K: 8, Trials: -1},
		{Name: "latency", K: 100000, D: 1},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/experiments", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("experiment %+v: %s: %s; want 400", req, resp.Status, body)
		}
	}
}

// TestExperimentPanicIsAnError: a size the request validation lets through
// but the simulator refuses (d sharers on a mesh too small for them) panics
// on a service worker, in an invalidation point ("placement") or a hot-spot
// burst ("hotspot"). Either way the request gets a 500 and the daemon
// answers the next one.
func TestExperimentPanicIsAnError(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 2})
	for _, req := range []ExperimentRequest{
		{Name: "placement", K: 4, D: 16, Trials: 1},
		{Name: "hotspot", K: 3, D: 16},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/experiments", req)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("experiment %+v: %s: %s; want 500", req, resp.Status, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/experiments", ExperimentRequest{Name: "latency", K: 8, Trials: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment after the panics: %s: %s", resp.Status, body)
	}
}

// TestAppsExperimentIsShed: the application comparison and the offered-load
// curve, the most expensive experiments, are bounded by the run queue like
// any job. With the one worker held by a gated job's point and the queue
// full, the experiment's points are refused: a 503 (ErrQueueFull), counted as
// shed.
func TestAppsExperimentIsShed(t *testing.T) {
	for _, name := range []string{"apps", "load"} {
		t.Run(name, func(t *testing.T) {
			release := make(chan struct{})
			defer close(release)
			svc, ts := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1, RunPoint: gatedEngine(release, sweep.RunPointDirect)})
			// The first job's point takes the worker, the second's the queue.
			for variant := 0; variant < 2; variant++ {
				if _, err := svc.Submit(JobSpec{Points: []sweep.Point{testPoint(0, variant)}}); err != nil {
					t.Fatal(err)
				}
				awaitWaiters(t, svc, variant+1)
				deadline := time.Now().Add(10 * time.Second)
				for svc.QueueDepth() != variant {
					if time.Now().After(deadline) {
						t.Fatalf("queue depth %d; want %d", svc.QueueDepth(), variant)
					}
					runtime.Gosched()
				}
			}
			shed := counters(t, ts.URL).Shed
			resp, body := postJSON(t, ts.URL+"/v1/experiments", ExperimentRequest{Name: name})
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), ErrQueueFull.Error()) {
				t.Fatalf("%s over a full queue: %s: %s; want 503 naming %v", name, resp.Status, body, ErrQueueFull)
			}
			if c := counters(t, ts.URL); c.Shed <= shed {
				t.Fatalf("Shed %d after the refused experiment; want more than %d", c.Shed, shed)
			}
		})
	}
}

// TestSharerSweepOnSmallMesh: a sharer sweep at any accepted k answers 200;
// on a 4x4 mesh it renders the d rows the mesh can hold.
func TestSharerSweepOnSmallMesh(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/experiments", ExperimentRequest{Name: "latency", K: 4, Trials: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("latency at k=4: %s: %s; want 200", resp.Status, body)
	}
}

// TestHostileJobIDs: a job ID arrives from outside and names a file under
// the data directory, so anything but a plain name is a 400 that registers
// nothing and writes nothing — in the data directory or above it.
func TestHostileJobIDs(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "deep", "er", "data")
	svc, ts := newTestDaemon(t, Config{Workers: 1, DataDir: dir})
	tree := func() []string {
		var paths []string
		filepath.WalkDir(parent, func(path string, d fs.DirEntry, err error) error {
			paths = append(paths, path)
			return err
		})
		return paths
	}
	before := tree()
	point := []PointSpec{{K: 4, Scheme: "UI-UA", D: 2, Pattern: "random", Trials: 1, Seed: 1}}
	for _, id := range []string{
		"../x", "../../../escaped", "a/b", ".hidden", "..", strings.Repeat("x", 65), "nul\x00byte", "sp ace",
	} {
		for _, mode := range []string{"", "?wait=1", "?stream=1"} {
			resp, body := postJSON(t, ts.URL+"/v1/jobs"+mode, JobRequest{ID: id, Points: point})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("job id %q (%s): %s: %s; want 400", id, mode, resp.Status, body)
			}
		}
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused IDs left table entries: %+v", jobs)
	}
	if after := tree(); !slices.Equal(after, before) {
		t.Fatalf("refused IDs changed the disk:\nbefore %v\nafter  %v", before, after)
	}
	// The longest and oddest legal name is accepted and leaves nothing behind.
	legal := strings.Repeat("x", 61) + "._-"
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", JobRequest{ID: legal, Points: point})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job id %q: %s: %s; want 200", legal, resp.Status, body)
	}
	if after := tree(); !slices.Equal(after, before) {
		t.Fatalf("a finished job left files behind:\nbefore %v\nafter  %v", before, after)
	}
}

// TestJobOverHTTP: submit a point job with ?wait=1, fetch its result by
// fingerprint, and read the flat metrics CSV.
func TestJobOverHTTP(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 2})
	jr := JobRequest{Points: []PointSpec{{
		K: 4, Scheme: "MI-UA-ec", D: 2, Pattern: "random", Trials: 2, Seed: 7,
	}}}
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", jr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job: %s: %s", resp.Status, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("job result decode: %v", err)
	}
	if res.Completed != 1 || len(res.Results) != 1 {
		t.Fatalf("job result %+v; want 1 completed point", res)
	}
	fp := res.Results[0].Fingerprint

	resp, body = getBody(t, ts.URL+"/v1/results/"+fp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %s: %s", resp.Status, body)
	}
	var rr ResultResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Fingerprint != fp || rr.Measures.Completed != 2 {
		t.Fatalf("result response %+v; want the stored measures", rr)
	}

	// The same job again is a cache hit end to end.
	resp, body = postJSON(t, ts.URL+"/v1/jobs?wait=1", jr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat job: %s: %s", resp.Status, body)
	}
	var res2 JobResult
	if err := json.Unmarshal(body, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.CacheHits != 1 {
		t.Fatalf("repeat job CacheHits = %d; want 1", res2.CacheHits)
	}

	resp, body = getBody(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if lines[0] != "seq,job,fingerprint,source,priority,batch_size,queue_wait_micros,run_micros,partial" {
		t.Fatalf("metrics CSV header = %q", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("metrics CSV has %d lines; want the run and the cache hit", len(lines))
	}

	resp, body = getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %s", resp.Status)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters.Runs != 1 || stats.Counters.CacheHits < 1 {
		t.Fatalf("stats counters %+v; want 1 run and >= 1 cache hit", stats.Counters)
	}
	if stats.StoreLen != 1 {
		t.Fatalf("StoreLen = %d; want 1", stats.StoreLen)
	}
}

// TestJobOverHTTPAsyncAndStatus: async submission returns an ID;
// /v1/jobs/{id}?wait=1 blocks to the terminal status; /v1/jobs lists it.
func TestJobOverHTTPAsyncAndStatus(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 1})
	jr := JobRequest{ID: "async-1", Points: []PointSpec{{
		K: 4, Scheme: "UI-UA", D: 3, Pattern: "clustered", Trials: 2, Seed: 9,
	}}}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", jr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %s: %s", resp.Status, body)
	}
	var acc map[string]string
	if err := json.Unmarshal(body, &acc); err != nil || acc["id"] != "async-1" {
		t.Fatalf("async submit body %s (err %v)", body, err)
	}
	resp, body = getBody(t, ts.URL+"/v1/jobs/async-1?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: %s: %s", resp.Status, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Result == nil {
		t.Fatalf("status %+v; want done with result", st)
	}
	resp, body = getBody(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %s", resp.Status)
	}
	var all []JobStatus
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != "async-1" {
		t.Fatalf("job list %+v; want the one job", all)
	}
	resp, _ = getBody(t, ts.URL+"/v1/jobs/missing")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %s; want 404", resp.Status)
	}
}

// TestJobOverHTTPStream: ?stream=1 emits NDJSON progress frames and a
// terminal result frame.
func TestJobOverHTTPStream(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 2})
	jr := JobRequest{Points: []PointSpec{
		{K: 4, Scheme: "MI-MA-ec", D: 2, Pattern: "random", Trials: 2, Seed: 3},
		{K: 4, Scheme: "MI-MA-ec", D: 3, Pattern: "random", Trials: 2, Seed: 3},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/jobs?stream=1", jr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s: %s", resp.Status, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 3 {
		t.Fatalf("stream emitted %d frames; want 2 progress + 1 result", len(lines))
	}
	var last ProgressEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("terminal frame: %v", err)
	}
	if last.Type != "result" || last.Result == nil || last.Result.Completed != 2 {
		t.Fatalf("terminal frame %+v; want a result with 2 completed points", last)
	}
	for _, l := range lines[:len(lines)-1] {
		var ev ProgressEvent
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("progress frame %q: %v", l, err)
		}
		if ev.Type != "progress" || ev.Total != 2 {
			t.Fatalf("progress frame %+v", ev)
		}
	}
}

// TestBadRequests: malformed bodies and invalid points are 400s.
func TestBadRequests(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{oops"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %s; want 400", resp.Status)
	}
	// A field the request type lacks is refused by name, at the top level
	// and inside a point, never dropped to serve another point.
	for _, c := range []struct{ path, body, field string }{
		{"/v1/jobs?wait=1", `{"points":[{"k":4,"scheme":"UI-UA","d":2,"pattern":"random","trials":1,"seed":1}],"priorty":3}`, "priorty"},
		{"/v1/jobs?wait=1", `{"points":[{"k":4,"scheme":"UI-UA","d":2,"pattern":"random","trials":1,"seed":1,"faults":{"seed":1,"dead_links":2}}]}`, "dead_links"},
		{"/v1/experiments", `{"name":"latency","k":4,"trails":1}`, "trails"},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"`+c.field+`\"`) {
			t.Fatalf("%s %s: %s: %s; want 400 naming %q", c.path, c.body, resp.Status, body, c.field)
		}
	}
	for i, jr := range []JobRequest{
		{},
		{Points: []PointSpec{{K: 4, Scheme: "no-such", D: 2, Pattern: "random", Trials: 1}}},
		{Points: []PointSpec{{K: 4, Scheme: "UI-UA", D: 2, Pattern: "spiral", Trials: 1}}},
		{Points: []PointSpec{{K: 1, Scheme: "UI-UA", D: 2, Pattern: "random", Trials: 1}}},
		{Points: []PointSpec{{K: 4, Scheme: "UI-UA", D: 99, Pattern: "random", Trials: 1}}},
		{Points: []PointSpec{{K: 4, Scheme: "UI-UA", D: 2, Pattern: "random", Trials: 0}}},
		{Points: []PointSpec{{K: 100000, Scheme: "UI-UA", D: 1, Pattern: "random", Trials: 1}}},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", jr)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %d accepted: %s: %s", i, resp.Status, body)
		}
	}
}

// TestHealthEndpoint: ok while serving, 503 once draining.
func TestHealthEndpoint(t *testing.T) {
	svc, ts := newTestDaemon(t, Config{Workers: 1})
	resp, _ := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s; want 200", resp.Status)
	}
	// Drain in the cleanup-registered order would double-drain; drain here
	// and verify, the cleanup's Drain error is tolerated by draining once.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %s; want 503", resp.Status)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", JobRequest{Points: []PointSpec{{
		K: 4, Scheme: "UI-UA", D: 2, Pattern: "random", Trials: 1, Seed: 1,
	}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job while draining: %s (%s); want 503", resp.Status, body)
	}
}

// TestColdDaemonSoak pushes 50 000 distinct one-point jobs through a real
// daemon whose store starts empty, so every request is a miss that crosses
// the in-flight table, the run queue and the worker pool. The engine is a
// no-op: the dispatch path is the whole workload, and it must survive it.
func TestColdDaemonSoak(t *testing.T) {
	const jobs, clients = 50_000, 8
	d, err := StartDaemon(DaemonConfig{Service: Config{
		Workers: 4,
		RunPoint: func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			return sweep.Measures{Completed: p.Trials}, nil
		},
	}})
	if err != nil {
		t.Fatalf("StartDaemon: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seed := next.Add(1)
				if seed > jobs {
					return
				}
				body := fmt.Sprintf(`{"points":[{"k":4,"scheme":"UI-UA","d":2,"pattern":"random","trials":1,"seed":%d}]}`, seed)
				resp, err := http.Post(d.BaseURL()+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("job %d: %v", seed, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("job %d: %s", seed, resp.Status)
					return
				}
			}
		}()
	}
	wg.Wait()

	c := d.Service().Metrics().Counters()
	if c.Runs != jobs || c.Requests != jobs || c.DuplicateRuns != 0 || c.Shed != 0 {
		t.Fatalf("runs=%d requests=%d dup=%d shed=%d; want %d/%d/0/0", c.Runs, c.Requests, c.DuplicateRuns, c.Shed, jobs, jobs)
	}
}

// TestStatsBodyGolden pins the /v1/stats document for a fixed counter state
// byte for byte (the string is the build before Counters() existed): what the
// endpoint reads changed, what it says must not.
func TestStatsBodyGolden(t *testing.T) {
	svc, ts := newTestDaemon(t, Config{Workers: 1})
	l := svc.Metrics()
	for _, src := range []Source{SourceCache, SourceRun, SourceCache, SourceRun, SourceCache} {
		l.Record(RequestMetric{Source: src})
	}
	l.Record(RequestMetric{Source: SourceCoalesced, Partial: true})
	l.RecordShed(2)
	l.RecordJob(true, false, false)
	l.RecordJob(true, true, false)
	l.RecordJob(false, false, true)
	if err := svc.Store().Put("ab", meas(1)); err != nil {
		t.Fatal(err)
	}
	const want = `{
 "counters": {
  "requests": 6,
  "cache_hits": 3,
  "coalesced": 1,
  "runs": 2,
  "duplicate_runs": 0,
  "partial": 1,
  "shed": 2,
  "jobs_accepted": 2,
  "jobs_completed": 1,
  "jobs_failed": 1
 },
 "hit_rate": 0.6666666666666666,
 "shed_rate": 0.25,
 "queue_depth": 0,
 "store_len": 1,
 "draining": false
}
`
	resp, body := getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK || string(body) != want {
		t.Fatalf("stats: %s\n%s\nwant\n%s", resp.Status, body, want)
	}
}

// TestStatsCostIndependentOfHistory: a stats poll is charged for the
// counters it reads, not for the records the daemon has served. With the
// metric ring full at 16 rows and at 4096 rows (393 KB), the bytes one
// /v1/stats call allocates must be the same and small.
func TestStatsCostIndependentOfHistory(t *testing.T) {
	perCall := func(capacity int) uint64 {
		svc := newTestService(t, Config{Workers: 1, MetricCap: capacity})
		for i := 0; i < capacity; i++ {
			svc.Metrics().Record(RequestMetric{Job: "fill", Fingerprint: "ab", Source: SourceCache})
		}
		h := NewServer(svc).Handler()
		call := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("stats: %d: %s", rec.Code, rec.Body)
			}
		}
		call() // one-time set-up (mux, encoder caches) stays out of the count
		const calls = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	small, full := perCall(16), perCall(4096)
	t.Logf("bytes allocated per /v1/stats call: %d at MetricCap 16, %d at 4096", small, full)
	if small >= 16<<10 || full >= 16<<10 {
		t.Errorf("a stats call allocates %d B (ring of 16) / %d B (ring of 4096); want < 16 KB", small, full)
	}
	if diff := max(small, full) - min(small, full); diff > 1<<10 {
		t.Errorf("a stats call allocates %d B over a ring of 16 and %d B over a ring of 4096; the cost must not depend on history", small, full)
	}
}

// TestResultRejectsMalformedFingerprints: a fingerprint that is not lowercase
// hex is refused before any store sees it, with one status and one body
// whatever the daemon runs on; a well-formed unknown one is a plain 404.
func TestResultRejectsMalformedFingerprints(t *testing.T) {
	disk := func() *DiskStore {
		d, err := NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	stores := []struct {
		name  string
		store ResultStore
	}{
		{"memory", NewMemoryStore(0)},
		{"disk", disk()},
		{"tiered", NewTieredStore(NewMemoryStore(0), disk())},
	}
	cases := []struct {
		fp   string
		code int
	}{
		{"zz", http.StatusBadRequest},
		{"ABCDEF", http.StatusBadRequest},
		{"..%2Fx", http.StatusBadRequest},
		{strings.Repeat("0f", 32), http.StatusNotFound},
	}
	bodies := map[string]string{} // fp -> the first store's answer
	for _, st := range stores {
		_, ts := newTestDaemon(t, Config{Workers: 1, Store: st.store})
		for _, tc := range cases {
			resp, body := getBody(t, ts.URL+"/v1/results/"+tc.fp)
			if resp.StatusCode != tc.code {
				t.Errorf("%s store, fingerprint %q: %s: %s; want %d", st.name, tc.fp, resp.Status, body, tc.code)
			}
			if first, ok := bodies[tc.fp]; !ok {
				bodies[tc.fp] = string(body)
			} else if string(body) != first {
				t.Errorf("%s store, fingerprint %q: body %s; the memory store answered %s", st.name, tc.fp, body, first)
			}
		}
	}
}

// TestOneFingerprintPerRequest: the fingerprint a ?wait=1 reply reports, the
// one in the request's metric row and the key the result is stored under are
// one string — on the run that computes the point and on the hit after it.
func TestOneFingerprintPerRequest(t *testing.T) {
	store := NewMemoryStore(0)
	svc, ts := newTestDaemon(t, Config{Workers: 1, Store: store})
	spec := PointSpec{K: 4, Scheme: "UI-UA", D: 2, Pattern: "random", Trials: 1, Seed: 1}
	p, err := spec.Point(0)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Fingerprint()
	for i, source := range []Source{SourceRun, SourceCache} {
		resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", JobRequest{Points: []PointSpec{spec}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job: %s: %s", resp.Status, body)
		}
		var res JobResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		_, rows := svc.Metrics().Snapshot()
		if len(res.Results) != 1 || len(rows) != i+1 {
			t.Fatalf("request %d: %d results, %d metric rows", i, len(res.Results), len(rows))
		}
		if got := res.Results[0]; got.Fingerprint != want || got.Source != source {
			t.Errorf("request %d: reply has %s from %s; want %s from %s", i, got.Fingerprint, got.Source, want, source)
		}
		if rows[i].Fingerprint != want {
			t.Errorf("request %d: metric row has fingerprint %s; want %s", i, rows[i].Fingerprint, want)
		}
	}
	if _, ok := store.byFP[want]; !ok || len(store.byFP) != 1 {
		t.Errorf("store keys %v; want exactly %s", store.byFP, want)
	}
}

// raceEnabled is set under the race detector (race_test.go), whose
// instrumentation makes allocation counts meaningless.
var raceEnabled bool

// TestCachedJobAllocs pins what one cached one-point POST /v1/jobs?wait=1
// costs through the handler: the point's fingerprint, the store probe, the
// one-point sweep on the request goroutine and the reply's encoding. The
// point and its measures are the serving benchmark's kind (k 16, d 16, 20
// trials, a 600-byte reply). The path measures 65 allocations and 12.5 KB;
// a goroutine and channel per sweep add 2 allocations, the fingerprint's
// decode into a map 41 and 1.9 KB, so either coming back fails here.
func TestCachedJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	spec := PointSpec{K: 16, Scheme: "MI-MA-ec", D: 16, Pattern: "random", Trials: 20, Seed: 11}
	p, err := spec.Point(0)
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{Workers: 1})
	m, _ := sweep.RunPointDirect(context.Background(), p)
	if err := svc.Store().Put(p.Fingerprint(), m); err != nil {
		t.Fatal(err)
	}
	h := NewServer(svc).Handler()
	body := []byte(mustJSON(t, JobRequest{Points: []PointSpec{spec}}))
	call := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache_hits": 1`)) {
			t.Fatalf("job: %d: %s", rec.Code, rec.Body)
		}
	}
	call() // one-time set-up (mux, encoder caches) stays out of the count
	allocs := testing.AllocsPerRun(200, call)
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("a cached one-point job allocates %.0f times, %d B", allocs, bytesPer)
	if allocs > 66 || bytesPer > 13<<10 {
		t.Errorf("a cached one-point job allocates %.0f times, %d B; want at most 66 and 13 KB", allocs, bytesPer)
	}
}

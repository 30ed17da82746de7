package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

// startDaemon serves an in-process daemon on an ephemeral port for the
// test's lifetime and returns its base URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	d, err := service.StartDaemon(service.DaemonConfig{Service: service.Config{
		Workers: 2, Store: service.NewMemoryStore(0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
	})
	return d.BaseURL()
}

// run runs one dsmsimctl command line and returns its exit code and output.
func run(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = ctl(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExperimentIsTheBatchTable: the experiment subcommand prints the same
// bytes in process, through a daemon (its body verbatim) and as the bare
// engine's Lab.Run renders them, as aligned text and as CSV.
func TestExperimentIsTheBatchTable(t *testing.T) {
	base := startDaemon(t)
	tab, err := experiments.Lab{}.Run("latency", 4, experiments.DefaultD, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag, want string
	}{
		{"-csv=false", tab.String() + "\n"},
		{"-csv", tab.CSV()},
	} {
		for mode, args := range map[string][]string{
			"in process": {"experiment", "-parallel", "2"},
			"remote":     {"-addr", base, "experiment"},
		} {
			code, out, errOut := run(append(args, "-name", "latency", "-k", "4", "-trials", "1", c.flag)...)
			if code != 0 {
				t.Fatalf("%s %s: exit %d: %s", mode, c.flag, code, errOut)
			}
			if out != c.want {
				t.Fatalf("%s %s table differs from the batch table:\n--- %s ---\n%s--- batch ---\n%s", mode, c.flag, mode, out, c.want)
			}
		}
	}
}

// TestExperimentSizeCheck: both modes refuse a size no experiment runs, or
// a name none has (update, forwarding, tree, limdir, threehop, barrier and
// degraded were E18, E16, E20, E15, E25, E22 and E28, since deleted), with
// exit 2, before
// the in-process run opens its store or the remote one sends a request.
func TestExperimentSizeCheck(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer ts.Close()
	data := filepath.Join(t.TempDir(), "data")
	for _, size := range [][]string{
		{"-k", "0"}, {"-k", "1"}, {"-k", "100"},
		{"-d", "0"}, {"-trials", "0"}, {"-name", "bogus"},
		{"-name", "update"}, {"-name", "forwarding"}, {"-name", "tree"},
		{"-name", "limdir"}, {"-name", "threehop"}, {"-name", "barrier"},
		{"-name", "degraded"},
	} {
		for mode, args := range map[string][]string{
			"in process": {"experiment", "-data", data},
			"remote":     {"-addr", ts.URL, "experiment"},
		} {
			code, out, errOut := run(append(append(args, "-name", "latency"), size...)...)
			if code != 2 || out != "" {
				t.Errorf("%s %v: exit %d, stdout %q; want 2 and nothing (stderr %q)", mode, size, code, out, errOut)
			}
		}
	}
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Errorf("a refused in-process run opened its store: stat %s: %v", data, err)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("refused remote runs sent %d requests", n)
	}
}

// TestUnplaceableSizesFail: a size the checks accept but whose hot-spot
// writers (E10 at k=2, d=1 wants 4 writers beside each block's home and
// sharer) or E24 sharers (5 on a 2x2 mesh) no mesh node can take fails the
// experiment within seconds, naming the size, instead of drawing nodes
// forever.
func TestUnplaceableSizesFail(t *testing.T) {
	for _, args := range [][]string{
		{"experiment", "-name", "hotspot", "-k", "2", "-d", "1"},
		{"experiment", "-name", "congestion", "-k", "2", "-d", "5"},
	} {
		type outcome struct {
			code   int
			errOut string
		}
		done := make(chan outcome, 1)
		go func() {
			code, _, errOut := run(args...)
			done <- outcome{code, errOut}
		}()
		select {
		case o := <-done:
			if o.code != 1 || !strings.Contains(o.errOut, "2x2 mesh") {
				t.Errorf("%v: exit %d, stderr %q; want 1 and an error naming the 2x2 mesh", args, o.code, o.errOut)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: still running after 30 s", args)
		}
	}
}

// TestRemoteAllIsOneRequestPerName: -name all through a daemon sends one
// request per experiments.RunnerOrder name, in order, and prints the bodies
// in turn; the daemon never sees "all", which it refuses with 400.
func TestRemoteAllIsOneRequestPerName(t *testing.T) {
	var mu sync.Mutex
	var names []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.ExperimentRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Check() != nil {
			http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
			return
		}
		mu.Lock()
		names = append(names, req.Name)
		mu.Unlock()
		fmt.Fprintln(w, req.Name)
	}))
	defer ts.Close()
	code, out, errOut := run("-addr", ts.URL, "experiment", "-name", "all", "-k", "4", "-trials", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := strings.Join(experiments.RunnerOrder, "\n") + "\n"; out != want || !slices.Equal(names, experiments.RunnerOrder) {
		t.Fatalf("printed %q after requests %v; want one per name of %v", out, names, experiments.RunnerOrder)
	}
}

// TestServeDrainsCleanly: serve listens on the global -addr, given as a URL
// or as host:port, and a cancelled context drains it cleanly; an address
// with no host is a usage error.
func TestServeDrainsCleanly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, addr := range []string{"http://127.0.0.1:0", "127.0.0.1:0"} {
		var stderr bytes.Buffer
		if code := ctl(ctx, []string{"-addr", addr, "serve", "-drain-grace", "1s"}, io.Discard, &stderr); code != 0 ||
			!strings.Contains(stderr.String(), "serving on 127.0.0.1:") || !strings.HasSuffix(stderr.String(), "drained cleanly\n") {
			t.Fatalf("serve on %s: exit %d:\n%s", addr, code, stderr.String())
		}
	}
	if code, _, errOut := run("-addr", "http://", "serve"); code != 2 {
		t.Fatalf("serve on http://: exit %d; want 2 (stderr %q)", code, errOut)
	}
}

// TestRunThenResult: run prints the job's result, the point it ran is then
// fetched back by fingerprint with result -fp, and health answers.
func TestRunThenResult(t *testing.T) {
	base := startDaemon(t)
	code, out, errOut := run("-addr", base, "run", "-k", "4", "-d", "2", "-trials", "1")
	if code != 0 {
		t.Fatalf("run: exit %d: %s", code, errOut)
	}
	var job service.JobResult
	if err := json.Unmarshal([]byte(out), &job); err != nil || len(job.Results) != 1 || job.Completed != 1 {
		t.Fatalf("run printed %q (%v); want one completed point", out, err)
	}
	pr := job.Results[0]

	code, out, errOut = run("-addr", base, "result", "-fp", pr.Fingerprint)
	if code != 0 {
		t.Fatalf("result: exit %d: %s", code, errOut)
	}
	var got service.ResultResponse
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("result printed %q: %v", out, err)
	}
	if got.Fingerprint != pr.Fingerprint || got.Measures.Completed != pr.Measures.Completed {
		t.Fatalf("result -fp %s returned %+v; want the run's point %+v", pr.Fingerprint, got, pr)
	}

	if code, _, errOut := run("-addr", base, "health"); code != 0 {
		t.Fatalf("health: exit %d: %s", code, errOut)
	}
}

// TestStreamPrintsProgressLines: run -stream prints NDJSON, the last line
// the terminal result.
func TestStreamPrintsProgressLines(t *testing.T) {
	base := startDaemon(t)
	code, out, errOut := run("-addr", base, "run", "-k", "4", "-d", "2", "-trials", "1", "-stream")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last service.ProgressEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Type != "result" || last.Result == nil {
		t.Fatalf("last stream line %q (%v); want the result event", lines[len(lines)-1], err)
	}
}

// TestRefusalShowsDaemonError: a request the daemon refuses exits 1 and
// shows the daemon's own error text.
func TestRefusalShowsDaemonError(t *testing.T) {
	base := startDaemon(t)
	code, _, errOut := run("-addr", base, "run", "-k", "4", "-d", "2", "-scheme", "bogus")
	if code != 1 {
		t.Fatalf("exit %d; want 1", code)
	}
	if !strings.Contains(errOut, `HTTP 400: point 0: grouping: unknown scheme "bogus"`) {
		t.Fatalf("stderr %q does not carry the daemon's error", errOut)
	}
}

// TestLoadSelfHostedVerifies: load without -addr self-hosts a daemon,
// warms it, runs the schedule and reconciles against the server.
func TestLoadSelfHostedVerifies(t *testing.T) {
	code, out, errOut := run("load", "-requests", "12", "-universe", "4", "-clients", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "verify ok") {
		t.Fatalf("no verify ok line:\n%s", out)
	}
}

// TestBadFlagsSendNothing: a bad command line exits 2 before any request
// reaches the daemon.
func TestBadFlagsSendNothing(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer ts.Close()
	for _, args := range [][]string{
		{"load", "-mode", "bogus"},
		{"load", "-mode", "closed", "-clients", "0"},
		{"load", "-mix", "bogus=1"},
		{"load", "-mix", "experiment=1"},
		{"load", "-scheme", "bogus"},
		{"load", "-requests", "0"},
		{"run", "-stream", "-async"},
		{"experiment"},
		{"result"},
		{"run", "-nosuchflag"},
		{"nosuchcommand"},
	} {
		code, _, errOut := run(append([]string{"-addr", ts.URL}, args...)...)
		if code != 2 {
			t.Errorf("%v: exit %d; want 2 (stderr %q)", args, code, errOut)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("bad command lines sent %d requests", n)
	}
}

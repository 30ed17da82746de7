package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestExperimentIsTheBatchTable: the experiment subcommand prints the
// daemon's table verbatim, the bytes invalsweep prints for the same sizes.
func TestExperimentIsTheBatchTable(t *testing.T) {
	base := startDaemon(t)
	code, out, errOut := run("-addr", base, "experiment", "-name", "latency", "-k", "4", "-trials", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	tab, err := experiments.Lab{}.Run("latency", 4, experiments.DefaultD, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := tab.String() + "\n"; out != want {
		t.Fatalf("served table differs from the batch table:\n--- served ---\n%s--- batch ---\n%s", out, want)
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

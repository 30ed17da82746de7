package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grouping"
	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// recordMiss records the deterministic Table-4 miss scenario used by the
// golden tests: a single fully-reproducible run, so the printed analysis is
// byte-stable.
func recordMiss(t *testing.T, kind int) []trace.Event {
	t.Helper()
	rec := trace.NewRecorder(1 << 16)
	mk := workload.AllMissKinds[kind]
	s, err := grouping.Parse("MI-MA-ec")
	if err != nil {
		t.Fatal(err)
	}
	p := workload.DefaultMicroParams(s)
	workload.MeasureMissTraced(p, mk, rec)
	if rec.Dropped() > 0 {
		t.Fatalf("ring wrapped: %d events dropped", rec.Dropped())
	}
	return rec.Events()
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/wormtrace -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update after verifying):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestPrintTopGolden pins the critical-path report format against a
// deterministic miss-scenario recording.
func TestPrintTopGolden(t *testing.T) {
	events := recordMiss(t, 2)
	var buf bytes.Buffer
	printTop(&buf, events, 3)
	checkGolden(t, "miss2_top.golden", buf.Bytes())
}

// TestPrintOccupancyGolden pins the occupancy-profile report format on the
// same recording.
func TestPrintOccupancyGolden(t *testing.T) {
	events := recordMiss(t, 2)
	var buf bytes.Buffer
	printOccupancy(&buf, events)
	checkGolden(t, "miss2_occupancy.golden", buf.Bytes())
}

// TestPrintHeatmapsGolden pins the three link heatmaps -occupancy prints
// after the profile, on the same recording.
func TestPrintHeatmapsGolden(t *testing.T) {
	events := recordMiss(t, 2)
	k := workload.DefaultMicroParams(grouping.MIMAEC).MeshSize
	var buf bytes.Buffer
	printHeatmaps(&buf, events, k, k)
	checkGolden(t, "miss2_heatmaps.golden", buf.Bytes())
}

// TestPrintEventsGolden pins the -events dump on the same recording.
func TestPrintEventsGolden(t *testing.T) {
	events := recordMiss(t, 2)
	var buf bytes.Buffer
	printEvents(&buf, events)
	checkGolden(t, "miss2_events.golden", buf.Bytes())
}

// TestPrintTopEmpty pins the no-operations fallback line.
func TestPrintTopEmpty(t *testing.T) {
	var buf bytes.Buffer
	printTop(&buf, nil, 3)
	if got := buf.String(); got != "no completed operations in the recording\n" {
		t.Fatalf("empty-recording output = %q", got)
	}
}

// runArgs runs the command line args and returns what it printed.
func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, args); err != nil {
		t.Fatalf("wormtrace %s: %v", strings.Join(args, " "), err)
	}
	return buf.String()
}

// TestInvalMeasuresTable: -workload inval prints the seven-row measures
// table, with the recorder off (-top 0: the table is the whole output) and
// on (-top 3: the table comes first). The goldens are the output of the
// single-run dsmsim command this workload replaced, at the same flags, and
// are never rewritten by -update.
func TestInvalMeasuresTable(t *testing.T) {
	for golden, args := range map[string][]string{
		"measures_k16_d16_ec.golden":        {"-k", "16", "-d", "16", "-scheme", "MI-MA-ec"},
		"measures_k8_d6_pa_diagonal.golden": {"-k", "8", "-d", "6", "-scheme", "MI-MA-pa", "-pattern", "diagonal", "-trials", "4", "-seed", "3"},
		"measures_k8_d6_ec_vct.golden":      {"-k", "8", "-d", "6", "-scheme", "MI-MA-ec", "-vct", "-iackbufs", "2", "-cons", "2"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := runArgs(t, append(args, "-top", "0")...); got != string(want) {
			t.Errorf("%v -top 0:\n%s\nwant (%s):\n%s", args, got, golden, want)
		}
		if got := runArgs(t, append(args, "-top", "3")...); !strings.HasPrefix(got, string(want)) {
			t.Errorf("%v -top 3 does not open with %s:\n%s", args, golden, got)
		}
	}
}

// TestRecordingIsTheRun: the analyses of a recording written with -o and
// re-read with -in are byte-identical to those of the live run.
func TestRecordingIsTheRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace.json")
	record := []string{"-workload", "inval", "-k", "8", "-d", "6", "-trials", "2"}
	analyses := []string{"-top", "3", "-occupancy", "-events"}
	live := runArgs(t, append(append(record, "-o", path), analyses...)...)
	file := runArgs(t, append([]string{"-in", path}, analyses...)...)

	// Past the run's own lines (the table, then "wrote ...") and the file's
	// "loaded ..." line, both print the same analyses.
	_, live, _ = strings.Cut(live, "wrote ")
	_, live, _ = strings.Cut(live, "\n")
	_, file, _ = strings.Cut(file, "\n")
	if live != file {
		t.Fatalf("live and -in analyses differ:\n--- live ---\n%s\n--- file ---\n%s", live, file)
	}
	for _, part := range []string{"top 3 by latency", "occupancy profile", "all-links busy share", "protocol events:"} {
		if !strings.Contains(file, part) {
			t.Errorf("analysis lacks %q", part)
		}
	}
}

// TestGroupsDrawTrialOneSharers: -workload groups draws exactly the sharers
// that -workload inval's first trial invalidates (under UI-UA every sharer
// receives its own inval message).
func TestGroupsDrawTrialOneSharers(t *testing.T) {
	const k, d, seed = 8, 6, 3
	rec := trace.NewRecorder(1 << 16)
	workload.RunInval(workload.InvalConfig{
		K: k, Scheme: grouping.UIUA, D: d, Trials: 1, Seed: seed, Recorder: rec,
	})
	invalidated := map[int32]bool{}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindMsgRecv && e.Label == trace.LabelInval {
			invalidated[e.Node] = true
		}
	}

	out := runArgs(t, "-workload", "groups", "-scheme", "UI-UA",
		"-k", strconv.Itoa(k), "-d", strconv.Itoa(d), "-seed", strconv.Itoa(seed))
	// UI-UA draws one worm per sharer; the first drawing marks all of them.
	_, first, _ := strings.Cut(out, "hops, conformed to ecube\n")
	rows := strings.Split(first, "\n")[:k]
	drawn := map[int32]bool{}
	for i, row := range rows {
		y := k - 1 - i
		for x, ch := range strings.ReplaceAll(row, " ", "") {
			if ch == 'S' || ch == '*' {
				drawn[int32(y*k+x)] = true
			}
		}
	}
	if len(drawn) != d || !reflect.DeepEqual(drawn, invalidated) {
		t.Fatalf("drawn sharers %v, trial 1 invalidated %v", drawn, invalidated)
	}
}

// TestRejectsBadCommandLines: out-of-range or unknown values are errors
// before anything runs.
func TestRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-k", "4", "-d", "15"},
		{"-workload", "groups", "-d", "0"},
		{"-iackbufs", "0"},
		{"-workload", "miss", "-kind", "8"},
		{"-workload", "bogus"},
		{"-scheme", "bogus"},
		{"-pattern", "bogus"},
	} {
		if err := run(io.Discard, args); err == nil {
			t.Errorf("wormtrace %s: no error", strings.Join(args, " "))
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grouping"
	"repro/internal/sweep"
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
		t.Fatalf("%v (run `go test ./cmd/dsmsimctl -update` to create it)", err)
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

// runArgs runs the trace command line args and returns what it printed.
func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cmdTrace(args, &buf, io.Discard); err != nil {
		t.Fatalf("trace %s: %v", strings.Join(args, " "), err)
	}
	return buf.String()
}

// TestInvalMeasuresTable: an invalidation point prints the seven-row
// measures table, with the recorder off (-top 0: the table is the whole
// output) and on (-top 3: the table comes first). The goldens are the output
// of the single-run dsmsim command this workload replaced, at the same
// configuration, and are never rewritten by -update.
func TestInvalMeasuresTable(t *testing.T) {
	for golden, point := range map[string]string{
		"measures_k16_d16_ec.golden":        `{"k":16,"d":16,"scheme":"MI-MA-ec","trials":10,"seed":1}`,
		"measures_k8_d6_pa_diagonal.golden": `{"k":8,"d":6,"scheme":"MI-MA-pa","pattern":"diagonal","trials":4,"seed":3}`,
		"measures_k8_d6_ec_vct.golden": `{"k":8,"d":6,"scheme":"MI-MA-ec","trials":10,"seed":1,` +
			`"tune":{"vct_deferred":true,"iack_buffers":2,"consumption_channels":2}}`,
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := runArgs(t, "-point", point, "-top", "0"); got != string(want) {
			t.Errorf("%s -top 0:\n%s\nwant (%s):\n%s", point, got, golden, want)
		}
		if got := runArgs(t, "-point", point, "-top", "3"); !strings.HasPrefix(got, string(want)) {
			t.Errorf("%s -top 3 does not open with %s:\n%s", point, golden, got)
		}
	}
}

// TestPointIsTheCell: for one cell shaped like each point-backed figure,
// trace -point prints exactly what sweep.RunPointDirect computes for it
// (an invalidation point's table rendered from those Measures, any other
// point's Measures JSON byte for byte), and every critical path it prints
// sums to its latency.
func TestPointIsTheCell(t *testing.T) {
	for _, c := range []struct{ name, point, analyses string }{
		{"E4", `{"k":8,"scheme":"MI-MA-ec","d":16,"trials":2,"seed":5}`, "-top 2"},
		{"E11b homed", `{"k":8,"scheme":"MI-MA-ec","d":8,"trials":2,"seed":1,"home":9}`, "-top 2"},
		{"E8 burst", `{"k":8,"scheme":"MI-MA-ec","d":8,"trials":1,"seed":1,` +
			`"hot_spot":{"writers":4,"overlap_sharers":true,"distinct_homes":true,"busy_jitter":500},` +
			`"tune":{"iack_buffers":2,"vct_deferred":true}}`, "-top 4"},
		{"E27 occupancy burst", `{"k":8,"scheme":"UI-UA","d":6,"trials":1,"seed":1,` +
			`"hot_spot":{"writers":3,"occupancy":true}}`, "-top 3"},
		{"Table 6 replay", `{"k":4,"scheme":"MI-MA-ec","trials":1,"app":"LU"}`, "-top 1"},
		{"E19 traffic", `{"k":8,"trials":1,"seed":1,"offered_load":5}`, "-top 0 -occupancy"},
	} {
		var p sweep.Point
		if err := json.Unmarshal([]byte(c.point), &p); err != nil {
			t.Fatal(err)
		}
		m, _ := sweep.RunPointDirect(context.Background(), p)
		var want bytes.Buffer
		if err := printMeasures(&want, p, m); err != nil {
			t.Fatal(err)
		}
		if !isInval(p) {
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.TrimSuffix(want.String(), "\n"); got != string(b) {
				t.Fatalf("%s: printed %s, want the Measures JSON %s", c.name, got, b)
			}
		}
		args := append([]string{"-point", c.point, "-cap", "524288"}, strings.Fields(c.analyses)...)
		out := runArgs(t, args...)
		if !strings.HasPrefix(out, want.String()) {
			t.Errorf("%s: output does not open with the cell's measures:\n%s\nwant:\n%s", c.name, out, want.String())
		}
		checkPathSums(t, c.name, out)
		if strings.Contains(c.analyses, "-occupancy") && !strings.Contains(out, "all-links busy share") {
			t.Errorf("%s: -occupancy printed no heatmaps:\n%s", c.name, out)
		}
	}
}

// checkPathSums requires that out prints at least one critical path when it
// announces any, that each path's segments sum to the latency its op line
// states, and that no line flags a mismatch.
func checkPathSums(t *testing.T, name, out string) {
	t.Helper()
	if strings.Contains(out, "!!") {
		t.Errorf("%s: attribution mismatch flagged:\n%s", name, out)
	}
	paths, latency, sum := 0, -1, 0
	flush := func() {
		if latency >= 0 && sum != latency {
			t.Errorf("%s: a critical path sums to %d, its op to %d cycles:\n%s", name, sum, latency, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "op "):
			flush()
			paths++
			f := strings.Fields(line[strings.LastIndex(line, ": ")+2:])
			latency, sum = atoi(t, f[0]), 0
		case latency >= 0 && strings.HasSuffix(line, " cycles") && strings.HasPrefix(line, "  "):
			f := strings.Fields(line)
			sum += atoi(t, f[len(f)-2])
		case line == "":
		default:
			flush()
			latency = -1
		}
	}
	flush()
	if strings.Contains(out, "by latency:") && paths == 0 {
		t.Errorf("%s: top-k header but no path:\n%s", name, out)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRecordingIsTheRun: the analyses of a recording written with -o and
// re-read with -in are byte-identical to those of the live run.
func TestRecordingIsTheRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace.json")
	record := []string{"-point", `{"k":8,"d":6,"scheme":"MI-MA-ec","trials":2,"seed":1}`}
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
// that the point's first trial invalidates (under UI-UA every sharer
// receives its own inval message).
func TestGroupsDrawTrialOneSharers(t *testing.T) {
	const k, d = 8, 6
	point := `{"k":8,"d":6,"scheme":"UI-UA","trials":1,"seed":3}`
	var p sweep.Point
	if err := json.Unmarshal([]byte(point), &p); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 16)
	sweep.RunPointRecorded(context.Background(), p, rec)
	invalidated := map[int32]bool{}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindMsgRecv && e.Label == trace.LabelInval {
			invalidated[e.Node] = true
		}
	}

	out := runArgs(t, "-workload", "groups", "-point", point)
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

// TestUnrunnableReplayExitsTwo: a replay apps.Run cannot run (more
// programs than nodes, an unknown application), one on a machine the
// simulator cannot build (a protocol, data-forwarding, limited-directory or
// worm-barrier knob: the machine runs only the paper's write-invalidate
// protocol and its shared-memory barrier), a mesh side below 2, a negative
// offered load, a traffic run with sharers, a placement, a virtual-channel
// count or a scheme it would ignore, or a point whose scheme
// grouping.AllSchemes does not list (by number or by name) is a bad command
// line, exit 2, not a panic mid-run.
func TestUnrunnableReplayExitsTwo(t *testing.T) {
	for _, c := range []struct{ point, why string }{
		{`{"k":2,"app":"LU","trials":1}`, "too few nodes"},
		{`{"k":8,"app":"LU","trials":1,"tune":{"worm_barriers":true,"vct_deferred":true}}`, `unknown field "worm_barriers"`},
		{`{"k":4,"app":"Nope","trials":1}`, `unknown application "Nope"`},
		{`{"k":4,"scheme":"MI-MA-ec","trials":1,"app":"LU","tune":{"protocol":1}}`, `unknown field "protocol"`},
		{`{"k":4,"scheme":"MI-MA-ec","trials":1,"app":"LU","tune":{"data_forwarding":true}}`,
			`unknown field "data_forwarding"`},
		{`{"k":8,"scheme":"UI-UA","d":6,"trials":3,"seed":1,"tune":{"dir_pointers":4}}`, `unknown field "dir_pointers"`},
		{`{"k":8,"scheme":"UI-UA","d":6,"trials":3,"seed":1,"tune":{"dir_coarse_region":8}}`,
			`unknown field "dir_coarse_region"`},
		{`{"k":4,"scheme":"MI-MA-ec","d":2,"trials":1,"seed":1,"faults":{"seed":1,"drop_rate":0.1,"dead_links":1}}`,
			`unknown field "dead_links"`},
		{`{"k":4,"scheme":42,"d":2,"trials":1,"seed":1}`, "unknown Scheme scheme(42)"},
		{`{"k":4,"scheme":9,"d":2,"trials":1,"seed":1}`, "unknown Scheme scheme(9)"},
		{`{"k":4,"scheme":"ADAPT","d":2,"trials":1,"seed":1}`, `unknown scheme "ADAPT"`},
		{`{"k":4,"scheme":"U-tree","d":2,"trials":1,"seed":1}`, `unknown scheme "U-tree"`},
		{`{"k":-4,"scheme":"UI-UA","trials":1,"d":2}`, "has K -4"},
		{`{"k":0,"scheme":"UI-UA","trials":1,"offered_load":1}`, "has K 0"},
		{`{"k":4,"scheme":"UI-UA","trials":1,"offered_load":-5}`, "has OfferedLoad -5"},
		{`{"k":4,"trials":1,"seed":1,"offered_load":5,"d":3,"pattern":"row"}`, "is a traffic run with D, Pattern"},
		{`{"k":4,"trials":1,"seed":1,"offered_load":5,"d":3}`, "is a traffic run with D, Pattern"},
		{`{"k":4,"trials":1,"seed":1,"offered_load":5,"pattern":"row"}`, "is a traffic run with D, Pattern"},
		{`{"k":4,"trials":1,"seed":1,"offered_load":5,"tune":{"virtual_channels":2}}`, `unknown field "virtual_channels"`},
		{`{"k":4,"trials":1,"seed":1,"offered_load":5,"scheme":"MI-MA-tm"}`, "a Scheme other than UI-UA"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("trace -point %s panicked: %v", c.point, r)
				}
			}()
			if code, _, errOut := run("trace", "-top", "0", "-point", c.point); code != 2 || !strings.Contains(errOut, c.why) {
				t.Errorf("trace -point %s: exit %d, stderr %q; want 2 and %q", c.point, code, errOut, c.why)
			}
		}()
	}
}

// TestRejectsBadCommandLines: a malformed or impossible point, and an
// unknown workload or miss row, are errors before anything runs.
func TestRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-point", `{"k":8,"d":6`},
		{"-point", `{"k":8,"d":6,"trails":3}`},
		{"-point", `{"k":8,"d":6,"trials":1} {"k":4}`},
		{"-point", `{"k":4,"d":2,"trials":1,"seed":1,"home":3,"app":"LU"}`},
		{"-point", `{"k":8,"d":6,"trials":0}`},
		{"-point", `{"k":4,"d":15,"trials":1}`},
		{"-workload", "groups", "-point", `{"k":8,"d":0,"trials":1}`},
		{"-workload", "groups", "-point", `{"k":4,"trials":1,"app":"LU"}`},
		{"-point", `{"k":8,"d":6,"trials":1,"tune":{"iack_buffers":-1}}`},
		{"-point", `{"k":8,"d":6,"trials":1,"scheme":"bogus"}`},
		{"-point", `{"k":8,"d":6,"trials":1,"pattern":"bogus"}`},
		{"-workload", "miss", "-kind", "8"},
		{"-workload", "miss", "-point", `{"k":4,"trials":1,"app":"LU","tune":{"consistency":1}}`},
		{"-workload", "bogus"},
	} {
		if err := cmdTrace(args, io.Discard, io.Discard); err == nil {
			t.Errorf("trace %s: no error", strings.Join(args, " "))
		}
	}
}

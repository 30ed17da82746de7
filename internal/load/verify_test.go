package load

import (
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/sim"
)

// verifyResult builds a minimal Result for unit-testing Verify without a
// live daemon.
func verifyResult() *Result {
	r := &Result{JobPrefix: "t", Overall: sim.NewHistogram(0)}
	for i := range r.Hists {
		r.Hists[i] = sim.NewHistogram(0)
	}
	r.Counters = Counters{Run: 2, PointsServed: 2, CacheHits: 1, EngineRuns: 1}
	r.After.Counters = service.Counters{Requests: 2, CacheHits: 1, Runs: 1}
	return r
}

const verifyCSVHeader = "seq,job,fingerprint,source,priority,batch_size,queue_wait_micros,run_micros,partial\n"

// TestVerifyReconciles: matching counters and CSV rows pass.
func TestVerifyReconciles(t *testing.T) {
	csv := verifyCSVHeader +
		"1,t-r000000,aa,cache,0,0,120,0,false\n" +
		"2,t-r000001,bb,run,0,1,450,900,false\n" +
		"3,t-warm,cc,run,0,1,10,10,false\n" + // warm job: excluded from the tally
		"4,other-r000000,dd,cache,0,0,5,0,false\n" // another client: excluded
	v := Verify(verifyResult(), csv)
	if !v.OK() {
		t.Fatalf("failures: %v", v.Failures)
	}
	if v.CSVRows != 2 {
		t.Fatalf("attributed %d rows; want 2", v.CSVRows)
	}
}

// TestVerifyCatchesDuplicateRuns: a moved DuplicateRuns counter fails.
func TestVerifyCatchesDuplicateRuns(t *testing.T) {
	res := verifyResult()
	res.After.Counters.DuplicateRuns = 1
	v := Verify(res, verifyCSVHeader+
		"1,t-r000000,aa,cache,0,0,120,0,false\n"+
		"2,t-r000001,bb,run,0,1,450,900,false\n")
	if v.OK() || !strings.Contains(v.Failures[0], "duplicate") {
		t.Fatalf("failures: %v", v.Failures)
	}
}

// TestVerifyCatchesSourceMismatch: CSV attribution disagreeing with the
// client counters fails.
func TestVerifyCatchesSourceMismatch(t *testing.T) {
	v := Verify(verifyResult(), verifyCSVHeader+
		"1,t-r000000,aa,cache,0,0,120,0,false\n"+
		"2,t-r000001,bb,coalesced,0,1,450,900,false\n") // client said run
	if v.OK() {
		t.Fatal("source mismatch passed")
	}
}

// TestVerifyCatchesMissingRows: evicted/absent rows are reported, not
// silently tolerated.
func TestVerifyCatchesMissingRows(t *testing.T) {
	v := Verify(verifyResult(), verifyCSVHeader+"1,t-r000000,aa,cache,0,0,120,0,false\n")
	if v.OK() || !strings.Contains(strings.Join(v.Failures, " "), "rows") {
		t.Fatalf("failures: %v", v.Failures)
	}
}

// TestVerifyCatchesClientErrors: any client-side error fails verification.
func TestVerifyCatchesClientErrors(t *testing.T) {
	res := verifyResult()
	res.Counters.Errors = 1
	v := Verify(res, verifyCSVHeader+
		"1,t-r000000,aa,cache,0,0,120,0,false\n"+
		"2,t-r000001,bb,run,0,1,450,900,false\n")
	if v.OK() {
		t.Fatal("client errors passed verification")
	}
}

// TestVerifyShedReconciliation: the server must have shed at least as many
// requests as the client observed as 503s.
func TestVerifyShedReconciliation(t *testing.T) {
	res := verifyResult()
	res.Counters.Shed = 3
	res.After.Counters.Shed = 1 // server admits fewer than the client saw
	v := Verify(res, verifyCSVHeader+
		"1,t-r000000,aa,cache,0,0,120,0,false\n"+
		"2,t-r000001,bb,run,0,1,450,900,false\n")
	if v.OK() || !strings.Contains(strings.Join(v.Failures, " "), "shed") {
		t.Fatalf("failures: %v", v.Failures)
	}
}

// TestVerifyCatchesBypassedExperiment: experiment requests that left the
// server's request counter where the client's own jobs put it were served
// beside the service, and fail; ones that resolved their grid pass.
func TestVerifyCatchesBypassedExperiment(t *testing.T) {
	csv := verifyCSVHeader +
		"1,t-r000000,aa,cache,0,0,120,0,false\n" +
		"2,t-r000001,bb,run,0,1,450,900,false\n"
	res := verifyResult()
	res.Experiment = 4
	if v := Verify(res, csv); v.OK() || !strings.Contains(strings.Join(v.Failures, " "), "experiment") {
		t.Fatalf("a bypassed experiment passed: %v", v.Failures)
	}
	res.After.Counters.Requests += 63
	res.After.Counters.Runs += 63
	if v := Verify(res, csv); !v.OK() {
		t.Fatalf("an experiment that resolved its 63 points failed: %v", v.Failures)
	}
}

// TestVerifyBadCSV: malformed documents fail loudly.
func TestVerifyBadCSV(t *testing.T) {
	for name, csv := range map[string]string{
		"missing column": "seq,job\n1,x\n",
		"ragged row":     verifyCSVHeader + "1,t-r000000,aa,cache\n",
		"bad number":     verifyCSVHeader + "1,t-r000000,aa,cache,0,0,notanum,0,false\n",
	} {
		if v := Verify(verifyResult(), csv); v.OK() {
			t.Errorf("%s: passed", name)
		}
	}
}

// TestPercentileTableShape: only kinds with traffic get rows, plus the
// overall row.
func TestPercentileTableShape(t *testing.T) {
	res := verifyResult()
	res.Hists[KindRun].Add(100)
	res.Overall.Add(100)
	tab := PercentileTable(res)
	if tab.Rows() != 2 {
		t.Fatalf("%d rows; want 2 (run + overall)", tab.Rows())
	}
	if tab.Cell(0, 0) != "run" || tab.Cell(1, 0) != "overall" {
		t.Fatalf("rows: %q, %q", tab.Cell(0, 0), tab.Cell(1, 0))
	}
}

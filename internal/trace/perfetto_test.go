package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// perfettoFixture exercises every branch WritePerfetto renders: op and txn
// spans (hit/miss, read/write), server-busy spans, message and directory
// instants, channel holds on dynamically-assigned link lanes, block/grant
// stall spans, worm kills, faults, ack posts, the engine-queue counter, and
// the kinds that intentionally stay off the timeline.
func perfettoFixture() []Event {
	return []Event{
		{At: 0, Kind: KindOpIssue, Node: 1, Txn: 7, Block: 3, Flag: FlagWrite},
		{At: 0, Kind: KindOpMiss, Node: 1, Txn: 7, Block: 3},
		{At: 1, Kind: KindMsgSend, Node: 1, Worm: 11, Block: 3, Label: LabelWriteReq, A: 0, B: 7},
		{At: 2, Kind: KindWormInject, Node: 1, Worm: 11, A: 4, B: 2},
		{At: 3, Kind: KindWormHold, Node: 0, Worm: 11, A: 1, B: 1, Flag: 0},
		{At: 4, Kind: KindWormHead, Node: 0, Worm: 11, A: 1},
		{At: 5, Kind: KindWormBlock, Node: 0, Worm: 11, Flag: BlockLink, A: 1},
		{At: 8, Kind: KindWormGrant, Node: 0, Worm: 11, Flag: BlockLink, A: 1},
		{At: 9, Kind: KindWormRelease, Node: 0, Worm: 11, A: 1, B: 1},
		{At: 9, Kind: KindWormDrain, Node: 0, Worm: 11},
		{At: 10, Kind: KindMsgRecv, Node: 0, Worm: 11, Block: 3, Label: LabelWriteReq, Flag: FlagFinal},
		{At: 10, Kind: KindWormDeliver, Node: 0, Worm: 11, Flag: FlagFinal},
		{At: 10, Kind: KindWormDone, Node: 0, Worm: 11},
		{At: 12, Kind: KindServerBusy, Node: 0, A: 10, B: 14},
		{At: 12, Kind: KindDirDone, Node: 0, Block: 3, B: 7, Label: LabelWriteReq},
		{At: 13, Kind: KindTxnStart, Node: 0, Txn: 21, Block: 3, A: 2, B: 1},
		{At: 14, Kind: KindMsgSend, Node: 0, Worm: 12, Block: 3, Label: LabelInval},
		{At: 15, Kind: KindFaultDrop, Node: 2, Worm: 12, A: 1},
		{At: 15, Kind: KindWormKill, Node: 2, Worm: 12},
		{At: 16, Kind: KindFaultStall, Node: 2, Worm: 13, A: 0, B: 9},
		{At: 17, Kind: KindFaultSlow, Node: 2, Worm: 13, A: 1, B: 2},
		{At: 18, Kind: KindFaultAckLoss, Node: 2, Txn: 21},
		{At: 20, Kind: KindTxnRetry, Node: 0, Txn: 21, A: 1, B: 1},
		{At: 22, Kind: KindWormPark, Node: 2, Worm: 14},
		{At: 23, Kind: KindWormResume, Node: 2, Worm: 14},
		{At: 24, Kind: KindAckPost, Node: 2, Txn: 21},
		{At: 28, Kind: KindTxnDone, Node: 0, Txn: 21, A: 1},
		{At: 30, Kind: KindOpDone, Node: 1, Txn: 7, Block: 3},
		{At: 31, Kind: KindOpIssue, Node: 1, Txn: 8, Block: 3},
		{At: 32, Kind: KindOpDone, Node: 1, Txn: 8, Block: 3, Flag: FlagHit},
		{At: 33, Kind: KindEngineQueue, Node: -1, A: 5, B: 40},
	}
}

// TestWritePerfettoGolden pins the full Chrome-trace JSON rendering.
func TestWritePerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, perfettoFixture()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "perfetto.golden.json")
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
		t.Fatalf("%v (run `go test ./internal/trace -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Perfetto JSON differs from %s (re-run with -update after verifying):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestWritePerfettoWellFormed checks structural properties independent of
// the golden bytes: valid JSON, the required top-level shape, and that
// every span carries a non-negative duration.
func TestWritePerfettoWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, perfettoFixture()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		Events []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", f.DisplayTimeUnit)
	}
	if len(f.Events) == 0 {
		t.Fatal("no trace events rendered")
	}
	spans, instants, meta := 0, 0, 0
	for _, ev := range f.Events {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 {
				t.Errorf("span %q has negative duration %v", ev.Name, ev.Dur)
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if spans == 0 || instants == 0 || meta == 0 {
		t.Errorf("rendering missing a phase: %d spans, %d instants, %d metadata", spans, instants, meta)
	}
}

// TestWritePerfettoDeterministic renders the fixture twice and demands
// byte-identical output (map iteration must not leak into the file).
func TestWritePerfettoDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WritePerfetto(&a, perfettoFixture()); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&b, perfettoFixture()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renderings of the same events differ")
	}
}

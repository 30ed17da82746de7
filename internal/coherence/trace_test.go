package coherence

import (
	"testing"

	"repro/internal/grouping"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestTraceCapturesTransactionLifecycle: a recorded write that invalidates
// two sharers carries one op issue/done pair and one transaction start/done
// pair, in the order opIssue < txnStart < txnDone < opDone, with messages
// sent and received in between and timestamps that never go backwards.
func TestTraceCapturesTransactionLifecycle(t *testing.T) {
	m := newM(t, 8, grouping.MIMAEC)
	rec := trace.NewRecorder(1 << 12)
	m.AttachTrace(rec)

	const b = 17
	for _, c := range []topology.Coord{{X: 3, Y: 1}, {X: 3, Y: 6}} {
		doOp(t, m, false, m.Mesh.ID(c), b)
	}
	rec.Reset() // keep only the write transaction
	doOp(t, m, true, nodeAt(m, 2, 2), b)

	events := rec.Events()
	count := map[trace.Kind]int{}
	first := map[trace.Kind]int{}
	for i, e := range events {
		if count[e.Kind] == 0 {
			first[e.Kind] = i
		}
		count[e.Kind]++
	}
	if count[trace.KindOpIssue] != 1 || count[trace.KindOpDone] != 1 {
		t.Fatalf("op events: %d issue, %d done; want one each", count[trace.KindOpIssue], count[trace.KindOpDone])
	}
	if count[trace.KindTxnStart] != 1 || count[trace.KindTxnDone] != 1 {
		t.Fatalf("txn events: %d start, %d done; want one each", count[trace.KindTxnStart], count[trace.KindTxnDone])
	}
	if count[trace.KindMsgSend] == 0 || count[trace.KindMsgRecv] == 0 {
		t.Fatalf("message events missing: %d sends, %d receives", count[trace.KindMsgSend], count[trace.KindMsgRecv])
	}
	order := []trace.Kind{trace.KindOpIssue, trace.KindTxnStart, trace.KindTxnDone, trace.KindOpDone}
	for i := 1; i < len(order); i++ {
		if first[order[i-1]] >= first[order[i]] {
			t.Fatalf("%v at event %d does not precede %v at event %d",
				order[i-1], first[order[i-1]], order[i], first[order[i]])
		}
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("event %d (%v @%d) precedes event %d (@%d) in time",
				i, events[i].Kind, events[i].At, i-1, events[i-1].At)
		}
	}
}

// TestTraceDoesNotPerturbTiming: attaching a recorder leaves the simulated
// clock exactly where an unrecorded run leaves it.
func TestTraceDoesNotPerturbTiming(t *testing.T) {
	run := func(traced bool) uint64 {
		m := newM(t, 8, grouping.MIMATM)
		if traced {
			m.AttachTrace(trace.NewRecorder(1 << 12))
		}
		const b = 17
		for _, c := range []topology.Coord{{X: 3, Y: 1}, {X: 6, Y: 2}} {
			doOp(t, m, false, m.Mesh.ID(c), b)
		}
		doOp(t, m, true, nodeAt(m, 2, 2), b)
		return uint64(m.Engine.Now())
	}
	if run(false) != run(true) {
		t.Fatal("recording changed simulated time")
	}
}

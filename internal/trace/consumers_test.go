// Consumer tests live in an external package so they can drive the real
// workloads (workload imports trace, so an internal test would cycle).
package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestAttributionSumsExactForAllMissKinds is the subsystem's core
// guarantee: for every Table 4 transaction under every scheme, the
// critical-path analyzer's component attribution sums to the measured
// end-to-end latency with zero residue.
func TestAttributionSumsExactForAllMissKinds(t *testing.T) {
	for _, s := range grouping.AllSchemes {
		p := workload.DefaultMicroParams(s)
		for _, kind := range workload.AllMissKinds {
			rec := trace.NewRecorder(1 << 14)
			measured := workload.MeasureMissTraced(p, kind, rec)
			a := trace.Analyze(rec.Events())
			if len(a.Ops) == 0 {
				t.Fatalf("%v/%v: analyzer found no ops", s, kind)
			}
			// The measured op is the last one retired; earlier ops are the
			// scenario's warm-ups (cache fills, sharer installs).
			op := a.Ops[len(a.Ops)-1]
			if op.Latency() != measured {
				t.Errorf("%v/%v: trace latency %d != measured %d", s, kind, op.Latency(), measured)
			}
			if op.Sum() != op.Latency() {
				t.Errorf("%v/%v: attribution sum %d != latency %d (segments %+v)",
					s, kind, op.Sum(), op.Latency(), op.Segments)
			}
			if kind != workload.ReadHit && !op.Resolved {
				t.Errorf("%v/%v: critical path unresolved: %+v", s, kind, op.Segments)
			}
			for _, seg := range op.Segments {
				if seg.To < seg.From {
					t.Errorf("%v/%v: segment %q runs backwards: %+v", s, kind, seg.Component, seg)
				}
			}
		}
	}
}

// TestAttributionSumsExactOverInvalGrid runs full invalidation workloads
// (concurrent worms, gather acks, every placement pattern) and requires
// exact sums for every op and every directory transaction in the trace.
func TestAttributionSumsExactOverInvalGrid(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC, grouping.MIMATM} {
		for _, pat := range []workload.Pattern{workload.RandomPlacement, workload.ColumnPlacement, workload.DiagonalPlacement} {
			rec := trace.NewRecorder(1 << 18)
			workload.RunInval(workload.InvalConfig{
				K: 8, Scheme: s, D: 6, Pattern: pat, Trials: 3, Seed: 7, Recorder: rec,
			})
			a := trace.Analyze(rec.Events())
			if len(a.Txns) == 0 {
				t.Fatalf("%v/%v: no transactions traced", s, pat)
			}
			for _, tx := range a.Txns {
				if tx.Sum() != tx.End-tx.Start {
					t.Errorf("%v/%v txn %d: sum %d != duration %d (%+v)",
						s, pat, tx.Txn, tx.Sum(), tx.End-tx.Start, tx.Segments)
				}
			}
			for _, op := range a.Ops {
				if op.Sum() != op.Latency() {
					t.Errorf("%v/%v op %d: sum %d != latency %d",
						s, pat, op.Tok, op.Sum(), op.Latency())
				}
			}
		}
	}
}

// TestTracedRunIsObservationallyIdentical replays the same seeded workload
// with and without a recorder attached: every published metric must be
// identical, or the hooks are perturbing the simulation.
func TestTracedRunIsObservationallyIdentical(t *testing.T) {
	base := workload.InvalConfig{
		K: 8, Scheme: grouping.MIMAEC, D: 8, Trials: 5, Seed: 11,
		Pattern: workload.ClusteredPlacement,
	}
	plain := workload.RunInval(base)

	traced := base
	traced.Recorder = trace.NewRecorder(1 << 18)
	got := workload.RunInval(traced)

	if got.Latency.Mean() != plain.Latency.Mean() ||
		got.Latency.Min() != plain.Latency.Min() ||
		got.Latency.Max() != plain.Latency.Max() {
		t.Fatalf("latency drifted under tracing: %v vs %v", got.Latency, plain.Latency)
	}
	if got.HomeMsgs != plain.HomeMsgs || got.FlitHops != plain.FlitHops ||
		got.Messages != plain.Messages || got.Groups != plain.Groups {
		t.Fatalf("metrics drifted under tracing: %+v vs %+v", got, plain)
	}
	if traced.Recorder.Len() == 0 {
		t.Fatal("recorder attached but nothing recorded")
	}
}

// TestTracingHasNoCycleCost checks the other half of the zero-overhead
// contract: a traced micro-measurement reports exactly the cycle count of
// the untraced one, for every miss kind.
func TestTracingHasNoCycleCost(t *testing.T) {
	p := workload.DefaultMicroParams(grouping.MIMAEC)
	for _, kind := range workload.AllMissKinds {
		plain := workload.MeasureMiss(p, kind)
		traced := workload.MeasureMissTraced(p, kind, trace.NewRecorder(1<<14))
		if plain != traced {
			t.Errorf("%v: untraced %d cycles, traced %d", kind, plain, traced)
		}
	}
}

// TestDisabledTracePathDoesNotAllocate pins the disabled-hook cost: with
// no recorder attached a full micro-measurement allocates exactly as much
// as it would have before the subsystem existed — the nil check is the
// entire overhead, and it is allocation-free.
func TestDisabledTracePathDoesNotAllocate(t *testing.T) {
	p := workload.DefaultMicroParams(grouping.UIUA)
	withNil := testing.AllocsPerRun(10, func() {
		workload.MeasureMissTraced(p, workload.ReadHit, nil)
	})
	plain := testing.AllocsPerRun(10, func() {
		workload.MeasureMiss(p, workload.ReadHit)
	})
	if withNil != plain {
		t.Fatalf("nil-recorder path allocates %.0f, plain path %.0f", withNil, plain)
	}
}

// TestPerfettoExportSmoke exports a real hot-spot trace and checks the
// JSON is well formed, non-trivial, and deterministic across exports.
func TestPerfettoExportSmoke(t *testing.T) {
	rec := trace.NewRecorder(1 << 16)
	rec.ProbeEvery = 64
	workload.RunHotSpot(workload.HotSpotConfig{
		K: 8, Scheme: grouping.MIMAEC, D: 6, Writers: 3, Recorder: rec,
	})
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var probes int
	for _, ev := range events {
		if ev.Kind == trace.KindEngineQueue {
			probes++
		}
	}
	if probes == 0 {
		t.Fatal("ProbeEvery set but no engine-queue samples recorded")
	}

	var a, b bytes.Buffer
	if err := trace.WritePerfetto(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePerfetto(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Perfetto export is not deterministic")
	}
	if a.Len() < 1024 {
		t.Fatalf("export suspiciously small: %d bytes", a.Len())
	}
}

// TestOccupancyFromRealWorkload sanity-checks the profiler on a real
// burst: the home node must be the busiest, and link utilization must be
// within [0, horizon].
func TestOccupancyFromRealWorkload(t *testing.T) {
	rec := trace.NewRecorder(1 << 16)
	res := workload.RunHotSpot(workload.HotSpotConfig{
		K: 8, Scheme: grouping.UIUA, D: 8, Writers: 4, Recorder: rec,
	})
	p := trace.Occupancy(rec.Events())
	if p == nil || len(p.Nodes) == 0 {
		t.Fatal("no node occupancy recorded")
	}
	if p.OpenHolds != 0 {
		t.Fatalf("%d link holds never released", p.OpenHolds)
	}
	var busiest sim.Time
	for _, n := range p.Nodes {
		busiest = max(busiest, n.Busy)
	}
	if busiest == 0 {
		t.Fatal("no busy node found")
	}
	if busiest > res.Makespan {
		t.Fatalf("home busy %d exceeds burst makespan %d", busiest, res.Makespan)
	}
	// The trace-derived home busy time must equal the protocol layer's own
	// HomeOccupancy counter exactly — two independent measurements of the
	// same quantity.
	if busiest != res.HomeOccupancy {
		t.Fatalf("trace home busy %d != protocol HomeOccupancy %d", busiest, res.HomeOccupancy)
	}
	for _, l := range p.MeshLinks() {
		if l.Busy > p.Horizon {
			t.Fatalf("link %d->%d busy %d exceeds horizon %d", l.From, l.To, l.Busy, p.Horizon)
		}
	}
}

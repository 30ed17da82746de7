package sweep

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestPointTimeoutRetriesOnce: a point that blows its budget on the first
// attempt but completes on the doubled-budget retry ends up complete (not
// partial), marked Retried, and the sweep stays clean.
func TestPointTimeoutRetriesOnce(t *testing.T) {
	pts := testPoints(3)
	var attempts atomic.Int64
	sum, err := Run(context.Background(), pts, Options{
		Parallel:     1,
		PointTimeout: 20 * time.Millisecond,
		RunPoint: func(ctx context.Context, p Point) (Measures, *metrics.Collector) {
			if p.Index == 1 && attempts.Add(1) == 1 {
				// First attempt: transiently slow, observes its deadline.
				<-ctx.Done()
				return Measures{Completed: 1}, nil
			}
			return Measures{Completed: p.Trials}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := sum.Results[1]
	if !r.Retried || r.Partial || r.Quarantined {
		t.Fatalf("retry outcome wrong: %+v", r)
	}
	if r.Measures.Completed != pts[1].Trials {
		t.Fatalf("retry result not used: %+v", r.Measures)
	}
	if sum.Partial != 0 || sum.Quarantined != 0 || sum.Completed != 3 {
		t.Fatalf("summary counts wrong: %+v", sum)
	}
	if sum.Results[0].Retried || sum.Results[2].Retried {
		t.Fatal("healthy points were retried")
	}
}

// TestPointTimeoutQuarantines: a point that blows the retry budget too is
// quarantined — its partial result kept, the flag set, the summary counting
// it.
func TestPointTimeoutQuarantines(t *testing.T) {
	pts := testPoints(3)
	var slowRuns atomic.Int64
	opts := Options{
		Parallel:     1,
		PointTimeout: 10 * time.Millisecond,
		RunPoint: func(ctx context.Context, p Point) (Measures, *metrics.Collector) {
			if p.Index == 1 {
				// Pathologically slow every time.
				slowRuns.Add(1)
				<-ctx.Done()
				return Measures{Completed: 1}, nil
			}
			return Measures{Completed: p.Trials}, nil
		},
	}
	sum, err := Run(context.Background(), pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := sum.Results[1]
	if !r.Retried || !r.Partial || !r.Quarantined {
		t.Fatalf("quarantine outcome wrong: %+v", r)
	}
	if slowRuns.Load() != 2 {
		t.Fatalf("slow point ran %d times, want exactly 2 (original + one retry)", slowRuns.Load())
	}
	if sum.Quarantined != 1 || sum.Partial != 1 {
		t.Fatalf("summary counts wrong: quarantined=%d partial=%d", sum.Quarantined, sum.Partial)
	}
}

// TestQuarantineRendersInProgress: the operator-facing status line must call
// out quarantined points.
func TestQuarantineRendersInProgress(t *testing.T) {
	p := Progress{Done: 4, Total: 9, Partial: 2, Quarantined: 1}
	if s := p.String(); !strings.Contains(s, "1 quarantined") {
		t.Fatalf("progress line omits quarantine: %q", s)
	}
	if s := (Progress{Done: 1, Total: 2}).String(); strings.Contains(s, "quarantined") {
		t.Fatalf("clean progress line mentions quarantine: %q", s)
	}
}

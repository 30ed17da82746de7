package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/sim"
)

// Verification is the cross-check of one load run against the daemon's own
// accounting: client-side counters vs the /v1/stats counter deltas and the
// /v1/metrics CSV rows attributed to the run's job prefix. Failures lists
// every violated invariant; an empty list means the run reconciles.
type Verification struct {
	Failures []string
	// CSVRows is how many metric rows carried this run's job prefix.
	CSVRows int
	// ServerDelta is After minus Before for the counters the run exercises.
	ServerDelta service.Counters
}

// OK reports whether every cross-check passed.
func (v *Verification) OK() bool { return len(v.Failures) == 0 }

func (v *Verification) failf(format string, args ...any) {
	v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
}

// Verify reconciles a run against the server's metrics CSV (fetched by the
// caller after the run). The invariants:
//
//   - DuplicateRuns never moved: coalescing plus the content-addressed
//     cache must prevent any double engine run.
//   - The per-source CSV rows attributed to this run's jobs agree exactly
//     with the client-side counters (cache hits, coalesced, engine runs).
//   - The server's shed counter moved at least as much as the client saw
//     503s (other clients may shed too, never fewer).
//   - Experiment requests resolved points through the service: the server's
//     request counter moved past the points the client's own jobs account
//     for. An experiment served beside the service would leave it there. So
//     would one that sweeps no point grid (table4, the application tables),
//     which is why ExperimentName should name a grid experiment (latency).
//   - Streaming percentiles of the run's server-side queue-wait column stay
//     within the histogram's documented error bound of the exact sort-based
//     reference over the same rows.
//
// Source attribution needs the run's rows still resident in the server's
// bounded metric ring, so callers must size MetricCap (or the run) such
// that the run fits; Verify reports a failure when rows are missing rather
// than guessing. Runs containing experiment requests reconcile only the
// invariants that do not need exact request attribution (experiments share
// the "experiment" job label with every other client).
func Verify(res *Result, metricsCSV string) *Verification {
	v := &Verification{}
	v.ServerDelta = counterDelta(res.Before.Counters, res.After.Counters)

	if v.ServerDelta.DuplicateRuns != 0 {
		v.failf("server ran %d duplicate engine runs (want 0: dedup is broken)", v.ServerDelta.DuplicateRuns)
	}
	if res.Errors != 0 {
		v.failf("client saw %d request errors (sheds are counted separately and are not errors)", res.Errors)
	}
	if int(v.ServerDelta.Shed) < res.Shed {
		v.failf("server shed counter moved %d, client saw %d sheds", v.ServerDelta.Shed, res.Shed)
	}
	if res.Experiment > 0 && v.ServerDelta.Requests <= uint64(res.PointsServed) {
		v.failf("%d experiment requests resolved no point through the service: server requests moved %d, the client's own jobs account for %d",
			res.Experiment, v.ServerDelta.Requests, res.PointsServed)
	}

	rows, err := parseMetricsCSV(metricsCSV)
	if err != nil {
		v.failf("metrics CSV: %v", err)
		return v
	}

	// Attribute rows to this run by its job naming scheme — "<prefix>-r<seq>"
	// for sync submits, "<prefix>-a<seq>" for async ones. The warm job
	// ("<prefix>-warm") and other clients' jobs stay out of the tally.
	prefix := res.JobPrefix
	var bySource [3]int // cache, run, coalesced
	queueWaits := []float64{}
	for _, row := range rows {
		if prefix == "" ||
			(!strings.HasPrefix(row.job, prefix+"-r") && !strings.HasPrefix(row.job, prefix+"-a")) {
			continue
		}
		v.CSVRows++
		switch row.source {
		case service.SourceCache:
			bySource[0]++
		case service.SourceRun:
			bySource[1]++
		case service.SourceCoalesced:
			bySource[2]++
		default:
			v.failf("metrics row for job %q has unknown source %q", row.job, row.source)
		}
		queueWaits = append(queueWaits, row.queueWaitMicros)
	}

	hasExperiments := res.Experiment > 0
	if !hasExperiments && prefix != "" {
		wantRows := res.CacheHits + res.EngineRuns + res.Coalesced
		if v.CSVRows != wantRows {
			v.failf("metrics CSV holds %d rows for prefix %q, client served %d points (ring evicted rows? raise MetricCap or shorten the run)",
				v.CSVRows, prefix, wantRows)
		} else {
			if bySource[0] != res.CacheHits {
				v.failf("CSV cache rows %d != client cache hits %d", bySource[0], res.CacheHits)
			}
			if bySource[1] != res.EngineRuns {
				v.failf("CSV run rows %d != client engine runs %d", bySource[1], res.EngineRuns)
			}
			if bySource[2] != res.Coalesced {
				v.failf("CSV coalesced rows %d != client coalesced %d", bySource[2], res.Coalesced)
			}
		}
	}

	// The streaming histogram must agree with the exact reference over the
	// very rows the server recorded — the documented error-bound contract.
	if len(queueWaits) > 0 {
		h := sim.NewHistogram(0)
		var exact sim.Sample
		for _, w := range queueWaits {
			h.Add(w)
			exact.Add(w)
		}
		for _, p := range []float64{50, 90, 95, 99, 100} {
			got, want := h.Percentile(p), exact.Percentile(p)
			if want == 0 {
				if got != 0 {
					v.failf("queue-wait p%v: streaming %v for exact 0", p, got)
				}
				continue
			}
			if rel := math.Abs(got-want) / want; rel > h.ErrorBound() {
				v.failf("queue-wait p%v: streaming %v vs exact %v (relative error %.4f > bound %.4f)",
					p, got, want, rel, h.ErrorBound())
			}
		}
	}
	return v
}

// metricRow is one parsed line of the /v1/metrics CSV.
type metricRow struct {
	job             string
	source          service.Source
	queueWaitMicros float64
}

// parseMetricsCSV parses the daemon's flat metric CSV (no quoting — the
// columns are scalars and hex fingerprints by construction).
func parseMetricsCSV(csv string) ([]metricRow, error) {
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	header := strings.Split(lines[0], ",")
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, need := range []string{"job", "source", "queue_wait_micros"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("missing column %q in header %q", need, lines[0])
		}
	}
	rows := make([]metricRow, 0, len(lines)-1)
	for n, line := range lines[1:] {
		if line == "" {
			continue
		}
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			return nil, fmt.Errorf("row %d has %d cells, header has %d", n+1, len(cells), len(header))
		}
		wait, err := strconv.ParseFloat(cells[col["queue_wait_micros"]], 64)
		if err != nil {
			return nil, fmt.Errorf("row %d queue_wait_micros: %v", n+1, err)
		}
		rows = append(rows, metricRow{
			job:             cells[col["job"]],
			source:          service.Source(cells[col["source"]]),
			queueWaitMicros: wait,
		})
	}
	return rows, nil
}

// PercentileTable renders the run's latency distribution: one row per
// request kind that saw traffic plus an overall row, all values in
// microseconds from the streaming histograms.
func PercentileTable(res *Result) *report.Table {
	t := report.NewTable("client latency (micros)",
		"kind", "count", "p50", "p90", "p95", "p99", "max")
	row := func(name string, h *sim.Histogram) {
		if h.N() == 0 {
			return
		}
		t.Row(name, h.N(),
			h.Percentile(50), h.Percentile(90), h.Percentile(95), h.Percentile(99), h.Max())
	}
	for k := 0; k < numKinds; k++ {
		row(Kind(k).String(), res.Hists[k])
	}
	row("overall", res.Overall)
	return t
}

// CounterTable renders the client-side counters next to the server deltas.
func CounterTable(res *Result, v *Verification) *report.Table {
	t := report.NewTable("counters", "name", "client", "server_delta")
	d := v.ServerDelta
	t.Row("points_served", res.PointsServed, d.Requests)
	t.Row("cache_hits", res.CacheHits, d.CacheHits)
	t.Row("coalesced", res.Coalesced, d.Coalesced)
	t.Row("engine_runs", res.EngineRuns, d.Runs)
	t.Row("duplicate_runs", 0, d.DuplicateRuns)
	t.Row("shed", res.Shed, d.Shed)
	t.Row("errors", res.Errors, "-")
	return t
}

// counterDelta subtracts counters field by field.
func counterDelta(before, after service.Counters) service.Counters {
	return service.Counters{
		Requests:      after.Requests - before.Requests,
		CacheHits:     after.CacheHits - before.CacheHits,
		Coalesced:     after.Coalesced - before.Coalesced,
		Runs:          after.Runs - before.Runs,
		DuplicateRuns: after.DuplicateRuns - before.DuplicateRuns,
		Partial:       after.Partial - before.Partial,
		JobsAccepted:  after.JobsAccepted - before.JobsAccepted,
		JobsCompleted: after.JobsCompleted - before.JobsCompleted,
		JobsFailed:    after.JobsFailed - before.JobsFailed,
		Shed:          after.Shed - before.Shed,
	}
}

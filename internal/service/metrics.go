package service

//simcheck:allow-file nogoroutine -- the metric log is shared by server goroutines and guards state with a mutex

import (
	"sync"

	"repro/internal/report"
)

// Source classifies how a point request was served.
type Source string

const (
	// SourceCache means the result came straight from the ResultStore.
	SourceCache Source = "cache"
	// SourceRun means this request's engine run produced the result.
	SourceRun Source = "run"
	// SourceCoalesced means the request piggybacked on another request's
	// engine run of the identical point.
	SourceCoalesced Source = "coalesced"
)

// RequestMetric is one per-point serving record. The struct is deliberately
// flat — one row per request, scalar columns only — so the metrics endpoint
// renders it as CSV that loads into a spreadsheet or pandas without any
// unnesting.
type RequestMetric struct {
	// Seq is the record's 1-based sequence number.
	Seq uint64 `json:"seq"`
	// Job is the owning job ID ("" for direct Resolve calls).
	Job string `json:"job"`
	// Fingerprint is the point's content hash.
	Fingerprint string `json:"fingerprint"`
	// Source says how the request was served: cache, run or coalesced.
	Source Source `json:"source"`
	// Priority is the job priority the request carried.
	Priority int `json:"priority"`
	// BatchSize is the number of requests the engine run that produced this
	// result served — its leader plus everyone coalesced onto it (0 for
	// cache hits).
	BatchSize int `json:"batch_size"`
	// QueueWaitMicros is the time from submission to engine-run start (or
	// to cache delivery), in microseconds.
	QueueWaitMicros int64 `json:"queue_wait_micros"`
	// RunMicros is the engine wall time that produced the result (0 for
	// cache hits; coalesced requests report the shared run's time).
	RunMicros int64 `json:"run_micros"`
	// Partial marks a result that completed fewer than the requested
	// trials (deadline hit); partial results are never cached.
	Partial bool `json:"partial,omitempty"`
}

// Counters are the service's aggregate totals since start.
type Counters struct {
	// Requests counts every point request resolved.
	Requests uint64 `json:"requests"`
	// CacheHits counts requests served from the ResultStore.
	CacheHits uint64 `json:"cache_hits"`
	// Coalesced counts requests that shared another request's engine run.
	Coalesced uint64 `json:"coalesced"`
	// Runs counts engine runs actually executed.
	Runs uint64 `json:"runs"`
	// DuplicateRuns counts engine runs of a fingerprint that already had a
	// complete stored result — always 0 unless dedup is broken.
	DuplicateRuns uint64 `json:"duplicate_runs"`
	// Partial counts requests that returned partial results.
	Partial uint64 `json:"partial"`
	// Shed counts requests refused with ErrQueueFull — the load shedder
	// firing. Shed requests are not counted in Requests (they never
	// resolved).
	Shed uint64 `json:"shed"`
	// JobsAccepted / JobsCompleted / JobsFailed count whole jobs.
	JobsAccepted  uint64 `json:"jobs_accepted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
}

// HitRate returns the fraction of requests served without a fresh engine
// run (cache hits plus coalesced), in [0, 1].
func (c Counters) HitRate() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.CacheHits+c.Coalesced) / float64(c.Requests)
}

// ShedRate returns the fraction of arriving point requests the shedder
// refused, in [0, 1] (shed requests never make it into Requests, so the
// denominator is arrivals: resolved plus shed).
func (c Counters) ShedRate() float64 {
	total := c.Requests + c.Shed
	if total == 0 {
		return 0
	}
	return float64(c.Shed) / float64(total)
}

// MetricLog is a bounded ring of the most recent RequestMetrics plus the
// running Counters. It is safe for concurrent use.
type MetricLog struct {
	mu       sync.Mutex
	cap      int
	ring     []RequestMetric
	next     int // ring insertion cursor
	seq      uint64
	counters Counters
}

// NewMetricLog returns a log keeping the most recent capacity records
// (default 4096 when capacity <= 0).
func NewMetricLog(capacity int) *MetricLog {
	if capacity <= 0 {
		capacity = 4096
	}
	return &MetricLog{cap: capacity}
}

// Record appends one request record (assigning its Seq) and folds it into
// the counters. The ring grows to its capacity once, then rows overwrite.
//
//simcheck:noalloc
func (l *MetricLog) Record(m RequestMetric) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	m.Seq = l.seq
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, m)
	} else {
		l.ring[l.next] = m
		l.next = (l.next + 1) % l.cap
	}
	l.counters.Requests++
	switch m.Source {
	case SourceCache:
		l.counters.CacheHits++
	case SourceRun:
		l.counters.Runs++
	case SourceCoalesced:
		l.counters.Coalesced++
	default:
		panic("service: unknown request source " + string(m.Source))
	}
	if m.Partial {
		l.counters.Partial++
	}
}

// RecordShed accounts n point requests refused by the full run queue.
func (l *MetricLog) RecordShed(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counters.Shed += uint64(n)
}

// RecordDuplicateRun accounts an engine run whose fingerprint already had a
// stored result.
func (l *MetricLog) RecordDuplicateRun() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counters.DuplicateRuns++
}

// RecordJob accounts job lifecycle transitions.
func (l *MetricLog) RecordJob(accepted, completed, failed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if accepted {
		l.counters.JobsAccepted++
	}
	if completed {
		l.counters.JobsCompleted++
	}
	if failed {
		l.counters.JobsFailed++
	}
}

// Counters returns the running totals and touches nothing else, so its cost
// does not depend on how many records the ring retains: the accessor for
// /v1/stats and every caller that does not need the records.
//
//simcheck:noalloc
func (l *MetricLog) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counters
}

// Snapshot returns the counters and a copy of the retained records, oldest
// first: O(capacity) by design, for /v1/metrics.
func (l *MetricLog) Snapshot() (Counters, []RequestMetric) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RequestMetric, 0, len(l.ring))
	if len(l.ring) == l.cap {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	return l.counters, out
}

// Table renders the retained records as a report.Table, one flat row per
// request — CSV-friendly by construction (report.Table.CSV).
func (l *MetricLog) Table() *report.Table {
	_, recs := l.Snapshot()
	t := report.NewTable("", "seq", "job", "fingerprint", "source", "priority",
		"batch_size", "queue_wait_micros", "run_micros", "partial")
	for _, m := range recs {
		t.Row(m.Seq, m.Job, m.Fingerprint, string(m.Source), m.Priority,
			m.BatchSize, m.QueueWaitMicros, m.RunMicros, m.Partial)
	}
	return t
}

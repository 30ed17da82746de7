package service

//simcheck:allow-file nogoroutine -- wire types are shared with server goroutines

import (
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// PointSpec is the wire form of one sweep point: schemes and patterns by
// their presentation names ("MI-MA-pa", "clustered") so clients never deal
// in internal enum values.
type PointSpec struct {
	K         int            `json:"k"`
	Scheme    string         `json:"scheme"`
	D         int            `json:"d"`
	Pattern   string         `json:"pattern"`
	Trials    int            `json:"trials"`
	Seed      uint64         `json:"seed"`
	ChaosSeed uint64         `json:"chaos_seed,omitempty"`
	Faults    *faults.Config `json:"faults,omitempty"`
}

// JobRequest is the wire form of a job submission.
type JobRequest struct {
	ID        string      `json:"id,omitempty"`
	Points    []PointSpec `json:"points"`
	Priority  int         `json:"priority,omitempty"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

// maxK bounds the mesh side a request may ask for, on the job and the
// experiment endpoints alike. The largest k the repository runs is 32; a
// side far above it would ask the simulator for a machine whose allocation
// alone exhausts memory, a crash no recover can turn into an error.
const maxK = 64

// Point compiles a PointSpec into an engine point at the given grid index.
func (ps PointSpec) Point(index int) (sweep.Point, error) {
	scheme, err := grouping.Parse(ps.Scheme)
	if err != nil {
		return sweep.Point{}, err
	}
	pattern, err := workload.ParsePattern(ps.Pattern)
	if err != nil {
		return sweep.Point{}, err
	}
	if ps.K < 2 || ps.K > maxK {
		return sweep.Point{}, fmt.Errorf("service: k=%d; want a mesh side in 2..%d", ps.K, maxK)
	}
	p := sweep.Point{
		Index:     index,
		K:         ps.K,
		Scheme:    scheme,
		D:         ps.D,
		Pattern:   pattern,
		Trials:    ps.Trials,
		Seed:      ps.Seed,
		ChaosSeed: ps.ChaosSeed,
		Faults:    ps.Faults,
	}
	if err := p.Check(); err != nil {
		return sweep.Point{}, fmt.Errorf("service: point %w", err)
	}
	return p, nil
}

// Spec converts a job request into a validated JobSpec.
func (jr JobRequest) Spec() (JobSpec, error) {
	spec := JobSpec{
		ID:       jr.ID,
		Priority: jr.Priority,
		Timeout:  time.Duration(jr.TimeoutMS) * time.Millisecond,
		Points:   make([]sweep.Point, len(jr.Points)),
	}
	for i, ps := range jr.Points {
		p, err := ps.Point(i)
		if err != nil {
			return JobSpec{}, fmt.Errorf("point %d: %w", i, err)
		}
		spec.Points[i] = p
	}
	return spec, validateSpec(&spec)
}

// ExperimentRequest asks for one named paper experiment (a name
// experiments.RunnerOrder lists) and its table. A zero size is the
// experiments' default (experiments.DefaultK, DefaultD, DefaultTrials).
type ExperimentRequest struct {
	Name   string `json:"name"`
	K      int    `json:"k,omitempty"`
	D      int    `json:"d,omitempty"`
	Trials int    `json:"trials,omitempty"`
	CSV    bool   `json:"csv,omitempty"`
}

// Check refuses an experiment the catalog cannot run: an unknown name, or a
// size outside 2 <= k <= maxK, d >= 1, trials >= 1. It does not fill in
// defaults, so a zero size is refused: dsmsimctl checks its flags with it
// before it opens a store or sends a request, and Service.Experiment checks
// a request with its defaults filled in.
func (req ExperimentRequest) Check() error {
	if err := experiments.CheckName(req.Name); err != nil {
		return badRequest{err}
	}
	if req.K < 2 || req.K > maxK || req.D < 1 || req.Trials < 1 {
		return badRequest{fmt.Errorf("experiment wants 2 <= k <= %d, d >= 1, trials >= 1; got k=%d d=%d trials=%d", maxK, req.K, req.D, req.Trials)}
	}
	return nil
}

// badRequest is an error in what a request asks for; the HTTP face answers
// it 400.
type badRequest struct{ error }

func (e badRequest) Unwrap() error { return e.error }

// StatsResponse is the /v1/stats document.
type StatsResponse struct {
	Counters   Counters `json:"counters"`
	HitRate    float64  `json:"hit_rate"`
	ShedRate   float64  `json:"shed_rate"`
	QueueDepth int      `json:"queue_depth"`
	StoreLen   int      `json:"store_len"`
	Draining   bool     `json:"draining"`
}

// ResultResponse is the /v1/results/{fingerprint} document.
type ResultResponse struct {
	Fingerprint string         `json:"fingerprint"`
	Measures    sweep.Measures `json:"measures"`
}

// ProgressEvent is one line of a streaming job response (NDJSON): progress
// frames while the sweep runs, then exactly one terminal frame carrying the
// result or the error.
type ProgressEvent struct {
	Type      string     `json:"type"` // "progress", "result" or "error"
	Done      int        `json:"done,omitempty"`
	Total     int        `json:"total,omitempty"`
	Partial   int        `json:"partial,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	Error     string     `json:"error,omitempty"`
}

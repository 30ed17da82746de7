package load

//simcheck:allow-file determinism,nogoroutine -- the runner paces wall-clock arrivals and fans requests across client goroutines by design; everything it counts is deterministic against a warm daemon

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// Config parameterizes a load run.
type Config struct {
	// BaseURL locates the daemon.
	BaseURL string
	// Schedule is the generated request sequence (GenSchedule).
	Schedule []Request
	// Universe maps the schedule's point indices to specs/fingerprints.
	Universe *Universe
	// Clients > 0 selects closed-loop mode: that many clients, each issuing
	// its share of the schedule (Seq mod Clients) back to back. Clients = 0
	// selects open-loop mode: requests fire at their At offsets regardless
	// of completions.
	Clients int
	// JobPrefix namespaces this run's job IDs so the verifier can attribute
	// the server's metric rows; it must be unique per daemon lifetime
	// (submitting a duplicate job ID is an error).
	JobPrefix string
	// ExperimentName is the named experiment KindExperiment requests run;
	// required iff the schedule contains any. Verify expects it to sweep a
	// point grid (latency does; table4 does not).
	ExperimentName string
	// Timeout is the per-point job timeout sent with submissions (0 = the
	// daemon's default).
	Timeout time.Duration
	// SkipAsyncWait leaves async jobs running when the schedule ends (the
	// soak test kills the daemon mid-flight on purpose). Default false:
	// every async job is awaited and folded into the counters.
	SkipAsyncWait bool
}

// Counters are the client-side totals of one run. Against a warm daemon
// they are a pure function of the schedule — the determinism contract the
// tests pin.
type Counters struct {
	Run           int `json:"run"`
	Async         int `json:"async"`
	Experiment    int `json:"experiment"`
	Result        int `json:"result"`
	Stats         int `json:"stats"`
	PointsServed  int `json:"points_served"`
	CacheHits     int `json:"cache_hits"`
	Coalesced     int `json:"coalesced"`
	EngineRuns    int `json:"engine_runs"`
	PartialPoints int `json:"partial_points"`
	ResultHits    int `json:"result_hits"`
	ResultMisses  int `json:"result_misses"`
	Shed          int `json:"shed"`
	Errors        int `json:"errors"`
}

// Result is one load run's outcome: per-kind and overall latency
// histograms (microseconds), the client-side counters, and the server's
// stats documents from immediately before and after the run.
type Result struct {
	Hists   [5]*sim.Histogram
	Overall *sim.Histogram
	Counters
	Before, After service.StatsResponse
	Wall          time.Duration
	// JobPrefix echoes the config so the verifier can attribute the
	// server's metric rows to this run.
	JobPrefix string
}

// Hist returns the latency histogram of one request kind.
func (r *Result) Hist(k Kind) *sim.Histogram { return r.Hists[k] }

// runner carries one run's shared state.
type runner struct {
	cfg    Config
	client *Client

	mu       sync.Mutex
	hists    [numKinds]*sim.Histogram
	overall  *sim.Histogram
	counters Counters
	asyncIDs []string
}

// Run executes the schedule against the daemon and returns the measured
// result. It validates the configuration up front; mid-run request errors
// are counted, not fatal (an overloaded daemon shedding load is a result,
// not a failure).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Schedule) == 0 {
		return nil, errors.New("load: empty schedule")
	}
	if cfg.Universe == nil || len(cfg.Universe.Specs) == 0 {
		return nil, errors.New("load: no universe")
	}
	if cfg.JobPrefix == "" {
		return nil, errors.New("load: JobPrefix is required (job IDs must be unique per daemon)")
	}
	for _, req := range cfg.Schedule {
		if req.Point < 0 || req.Point >= len(cfg.Universe.Specs) {
			return nil, fmt.Errorf("load: request %d targets point %d outside the %d-point universe",
				req.Seq, req.Point, len(cfg.Universe.Specs))
		}
		if req.Kind == KindExperiment && cfg.ExperimentName == "" {
			return nil, errors.New("load: schedule contains experiment requests but no ExperimentName is set")
		}
	}
	r := &runner{cfg: cfg, client: NewClient(cfg.BaseURL), overall: sim.NewHistogram(0)}
	for k := range r.hists {
		r.hists[k] = sim.NewHistogram(0)
	}

	var before, after service.StatsResponse
	if err := r.client.Get(ctx, "/v1/stats", &before); err != nil {
		return nil, fmt.Errorf("load: daemon stats before run: %w", err)
	}

	start := time.Now()
	if cfg.Clients > 0 {
		r.closedLoop(ctx)
	} else {
		r.openLoop(ctx)
	}
	if !cfg.SkipAsyncWait {
		r.awaitAsync(ctx)
	}
	wall := time.Since(start)

	if err := r.client.Get(ctx, "/v1/stats", &after); err != nil {
		return nil, fmt.Errorf("load: daemon stats after run: %w", err)
	}
	res := &Result{
		Hists: r.hists, Overall: r.overall,
		Counters: r.counters,
		Before:   before, After: after,
		Wall:      wall,
		JobPrefix: cfg.JobPrefix,
	}
	return res, nil
}

// openLoop fires each request at its schedule offset on its own goroutine —
// arrivals never wait for completions, so queueing delay shows up as
// latency instead of silently throttling the arrival rate (coordinated
// omission).
func (r *runner) openLoop(ctx context.Context) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, req := range r.cfg.Schedule {
		if ctx.Err() != nil {
			break
		}
		if d := time.Until(start.Add(req.At)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			r.issue(ctx, req)
		}(req)
	}
	wg.Wait()
}

// closedLoop partitions the schedule across Clients goroutines; each client
// issues its requests back to back, so throughput self-limits to what the
// daemon sustains.
func (r *runner) closedLoop(ctx context.Context) {
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, req := range r.cfg.Schedule {
				if req.Seq%r.cfg.Clients != c || ctx.Err() != nil {
					continue
				}
				r.issue(ctx, req)
			}
		}(c)
	}
	wg.Wait()
}

// issue performs one request, recording its latency and counters.
func (r *runner) issue(ctx context.Context, req Request) {
	start := time.Now()
	var err error
	switch req.Kind {
	case KindRun:
		var res service.JobResult
		err = r.client.Submit(ctx, r.job(req, "r"), Wait, &res)
		r.record(req.Kind, time.Since(start), err, func(c *Counters) {
			c.Run++
			if err == nil {
				foldJob(c, &res)
			}
		})
		return
	case KindAsync:
		jr := r.job(req, "a")
		err = r.client.Submit(ctx, jr, Async, nil)
		r.record(req.Kind, time.Since(start), err, func(c *Counters) {
			c.Async++
		})
		if err == nil {
			r.mu.Lock()
			r.asyncIDs = append(r.asyncIDs, jr.ID)
			r.mu.Unlock()
		}
		return
	case KindExperiment:
		err = r.client.Experiment(ctx, service.ExperimentRequest{Name: r.cfg.ExperimentName}, nil)
		r.record(req.Kind, time.Since(start), err, func(c *Counters) { c.Experiment++ })
		return
	case KindResult:
		// A 404 is a cache miss, not an error.
		err = r.client.Get(ctx, "/v1/results/"+r.cfg.Universe.Fingerprints[req.Point], nil)
		var se *StatusError
		miss := errors.As(err, &se) && se.Code == http.StatusNotFound
		if miss {
			err = nil
		}
		r.record(req.Kind, time.Since(start), err, func(c *Counters) {
			c.Result++
			if miss {
				c.ResultMisses++
			} else if err == nil {
				c.ResultHits++
			}
		})
		return
	case KindStats:
		err = r.client.Get(ctx, "/v1/stats", nil)
		r.record(req.Kind, time.Since(start), err, func(c *Counters) { c.Stats++ })
		return
	default:
		panic("load: unknown request kind " + req.Kind.String())
	}
}

// job is the one-point job a run (tag "r") or async (tag "a") request
// submits; its ID is unique within the run.
func (r *runner) job(req Request, tag string) service.JobRequest {
	return service.JobRequest{
		ID:        fmt.Sprintf("%s-%s%06d", r.cfg.JobPrefix, tag, req.Seq),
		Points:    []service.PointSpec{r.cfg.Universe.Specs[req.Point]},
		TimeoutMS: r.cfg.Timeout.Milliseconds(),
	}
}

// record folds one completed request into the histograms and counters under
// the lock. A 503 counts as shed, any other error as a failure.
func (r *runner) record(k Kind, lat time.Duration, err error, apply func(*Counters)) {
	micros := float64(lat.Microseconds())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[k].Add(micros)
	r.overall.Add(micros)
	apply(&r.counters)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusServiceUnavailable {
			r.counters.Shed++
		} else {
			r.counters.Errors++
		}
	}
}

// foldJob accumulates a completed job's per-point serving sources. Caller
// holds the lock.
func foldJob(c *Counters, res *service.JobResult) {
	for _, pr := range res.Results {
		c.PointsServed++
		if pr.Partial {
			c.PartialPoints++
		}
		switch pr.Source {
		case service.SourceCache:
			c.CacheHits++
		case service.SourceCoalesced:
			c.Coalesced++
		case service.SourceRun:
			c.EngineRuns++
		default:
			// Point never started (cancelled before dispatch).
		}
	}
}

// awaitAsync waits for every async job submitted during the run and folds
// its results into the counters (their submit latency was already recorded;
// completion time is the daemon's business, not the client's).
func (r *runner) awaitAsync(ctx context.Context) {
	r.mu.Lock()
	ids := append([]string(nil), r.asyncIDs...)
	r.mu.Unlock()
	for _, id := range ids {
		var st service.JobStatus
		err := r.client.Get(ctx, "/v1/jobs/"+url.PathEscape(id)+"?wait=1", &st)
		r.mu.Lock()
		if err != nil || st.Result == nil {
			r.counters.Errors++
		} else {
			foldJob(&r.counters, st.Result)
		}
		r.mu.Unlock()
	}
}

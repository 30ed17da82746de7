// Package service is the simulation-as-a-service layer: a long-running
// daemon core that wraps the sweep engine behind a priority job queue, an
// in-flight coalescing table and a content-addressed result cache.
//
// The whole design leans on one property the rest of the repository spent
// eight PRs proving: every (config, seed) point is deterministic, so a
// point's result is an immutable value named by its content hash
// (sweep.Point.Fingerprint). That makes three classically hard serving
// problems trivial here:
//
//   - Caching needs no invalidation: a stored result can never go stale.
//   - Coalescing needs no consistency story: every waiter on a fingerprint
//     gets the byte-identical answer the engine would have given it alone.
//   - Crash recovery needs no replay log and no checkpoint: a result is
//     stored before it is delivered and a lost point re-runs to the same
//     bytes, so the journal only records *what* was asked, never partial state.
//
// A point request flows through five stages: Resolve probes the store; a
// miss looks its fingerprint up in the in-flight table and either attaches
// to the run already there or creates one; a new run enters the bounded
// priority queue; a worker of the bounded pool pops it and calls the engine
// (sweep.RunPointDirect); the result is stored and fanned out to every
// waiter. The in-flight table is the only coalescer and the queue bound the
// only load shedder. Jobs (point lists) run through sweep.Run with the
// service substituted as Options.RunPoint, so job-level ordering, retry and
// progress are the sweep engine's existing machinery, not a
// reimplementation.
package service

//simcheck:allow-file determinism,nogoroutine -- the worker pool and job runner are goroutines by design, and the request metrics time queue wait and engine run on the wall clock; see DESIGN.md section 16

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sweep"
)

// Config configures a Service. The zero value of any field picks a sane
// default.
type Config struct {
	// Workers bounds the engine worker pool (default 4).
	Workers int
	// QueueDepth bounds the run queue; dispatches beyond it fail with
	// ErrQueueFull (default 1024).
	QueueDepth int
	// Store is the result cache (default an unbounded MemoryStore).
	Store ResultStore
	// RunPoint is the engine (default sweep.RunPointDirect; tests fake it).
	RunPoint func(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector)
	// DataDir, when nonempty, enables durability: every accepted job keeps
	// a jobs/<id>.json file here until it finishes, so a drained or killed
	// daemon resumes its unfinished jobs on restart (see OpenStore).
	DataDir string
	// MetricCap bounds the per-request metric ring (default 4096).
	MetricCap int
	// DefaultTimeout is the per-point timeout of a job or experiment that
	// does not set its own, and of any other request without a deadline;
	// 0 means none.
	DefaultTimeout time.Duration
}

// JobSpec is one submitted job: an ordered list of points run as a sweep.
type JobSpec struct {
	// ID names the job; Submit assigns one when empty.
	ID string `json:"id"`
	// Points is the job's sweep grid (Index must equal position).
	Points []sweep.Point `json:"points"`
	// Priority orders the run queue (higher first, default 0).
	Priority int `json:"priority"`
	// Timeout is the per-point deadline, the sweep engine's PointTimeout:
	// an overrunning point comes back partial and is not stored, so a
	// resubmission retries it. 0 uses the service default.
	Timeout time.Duration `json:"timeout,omitempty"`
}

// PointResult is one point's outcome within a JobResult.
type PointResult struct {
	Index       int            `json:"index"`
	Fingerprint string         `json:"fingerprint"`
	Source      Source         `json:"source"`
	Measures    sweep.Measures `json:"measures"`
	Partial     bool           `json:"partial,omitempty"`
}

// JobResult is a completed job.
type JobResult struct {
	ID        string        `json:"id"`
	Results   []PointResult `json:"results"`
	Completed int           `json:"completed"`
	Partial   int           `json:"partial"`
	// CacheHits / Coalesced / Runs break down how the job's points were
	// served.
	CacheHits int `json:"cache_hits"`
	Coalesced int `json:"coalesced"`
	Runs      int `json:"runs"`
}

// JobStatus is the queryable state of a submitted job.
type JobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"` // "running", "done" or "failed"
	Done     int        `json:"done"`
	Total    int        `json:"total"`
	Error    string     `json:"error,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	Priority int        `json:"priority"`
}

// Service is the daemon core. Create with New, stop with Drain.
type Service struct {
	cfg     Config
	store   ResultStore
	metrics *MetricLog
	queue   *runQueue

	baseCtx context.Context
	cancel  context.CancelFunc
	workers sync.WaitGroup
	jobsWG  sync.WaitGroup

	mu       sync.Mutex
	inflight map[string]*run
	// jobs holds the running jobs plus the jobRetention (MetricLog's default
	// ring) most recently finished, whose IDs finished keeps in completion order.
	jobs      map[string]*jobState
	finished  [jobRetention]string
	finishedN uint64
	jobSeq    uint64
	runSeq    uint64
	draining  bool
}

const jobRetention = 4096

type jobState struct {
	spec   JobSpec
	status JobStatus
	done   chan struct{}
}

// New starts a service: the worker pool begins immediately. If cfg.DataDir
// holds job files from a previous run, those jobs are resubmitted (the
// result store makes that cheap: finished points are hits, only lost work
// re-runs).
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Store == nil {
		cfg.Store = NewMemoryStore(0)
	}
	if cfg.RunPoint == nil {
		cfg.RunPoint = sweep.RunPointDirect
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		store:    cfg.Store,
		metrics:  NewMetricLog(cfg.MetricCap),
		queue:    newRunQueue(cfg.QueueDepth),
		baseCtx:  ctx,
		cancel:   cancel,
		inflight: map[string]*run{},
		jobs:     map[string]*jobState{},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker() //simcheck:allow nogoroutine -- the bounded engine worker pool
	}
	if err := s.resumeJobs(); err != nil {
		s.cancel()
		s.queue.close()
		return nil, err
	}
	return s, nil
}

// Metrics returns the service's metric log.
func (s *Service) Metrics() *MetricLog { return s.metrics }

// Store returns the result store.
func (s *Service) Store() ResultStore { return s.store }

// QueueDepth returns the current run-queue depth.
func (s *Service) QueueDepth() int { return s.queue.depth() }

// Draining reports whether the service has stopped accepting jobs.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Resolve serves one point: store probe, then the in-flight table (attach
// to the run already computing this fingerprint, or create and queue one),
// then an engine run on the worker pool. It blocks until the result is
// available or ctx ends. The returned collector is non-nil only for the
// request whose engine run produced the result.
func (s *Service) Resolve(ctx context.Context, p sweep.Point, priority int, job string) (sweep.Measures, *metrics.Collector, Source, error) {
	return s.resolve(ctx, p, p.Fingerprint(), priority, job)
}

// resolve is Resolve for a caller that already holds p's fingerprint: fp is
// the store key, the coalescing key and the metric row's fingerprint, so a
// request computes it once.
func (s *Service) resolve(ctx context.Context, p sweep.Point, fp string, priority int, job string) (sweep.Measures, *metrics.Collector, Source, error) {
	enq := time.Now()
	if m, ok, err := s.store.Get(fp); err != nil {
		return sweep.Measures{}, nil, "", err
	} else if ok {
		s.metrics.Record(RequestMetric{
			Job: job, Fingerprint: fp, Source: SourceCache, Priority: priority,
			QueueWaitMicros: time.Since(enq).Microseconds(),
		})
		return m, nil, SourceCache, nil
	}
	if err := ctx.Err(); err != nil {
		return sweep.Measures{}, nil, "", err // no run for a request that has already given up
	}
	if _, ok := ctx.Deadline(); !ok && s.cfg.DefaultTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		defer cancel()
	}
	req := &request{
		p: p, fp: fp, job: job, priority: priority,
		enqueued: enq,
		out:      make(chan outcome, 1),
	}
	if err := s.admit(req); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.metrics.RecordShed(1)
		}
		return sweep.Measures{}, nil, "", err
	}
	select {
	case o := <-req.out:
		if o.err != nil {
			return sweep.Measures{}, nil, "", o.err
		}
		s.metrics.Record(RequestMetric{
			Job: job, Fingerprint: fp, Source: o.source, Priority: priority,
			BatchSize:       o.batchSize,
			QueueWaitMicros: o.queueWait.Microseconds(),
			RunMicros:       o.runTime.Microseconds(),
			Partial:         o.m.Completed < p.Trials,
		})
		return o.m, o.coll, o.source, nil
	case <-ctx.Done():
		// The engine run continues while another request waits for it;
		// this request's buffered outcome channel absorbs the delivery.
		s.leave(req)
		return sweep.Measures{}, nil, "", ctx.Err()
	}
}

// admit is the coalescing step. In one critical section a request either
// attaches to the in-flight run of its fingerprint or becomes the leader of
// a new run on the queue, so a fingerprint never has two runs between
// admission and delivery, except that a run no request waits for any more
// leaves the table at once (see leave). So a run lasts while any of its
// requests waits, and a request that joins a run is never cut off at
// another's deadline. It fails with ErrQueueFull at the queue bound and
// ErrDraining once the queue is closed; a failed request leaves no trace.
func (s *Service) admit(r *request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rn, ok := s.inflight[r.fp]; ok {
		s.join(rn, r)
		return nil
	}
	// Workers store a result before they clear its table entry, so a run
	// that finished between the caller's store probe and this lock has left
	// its result in the store. Serve it rather than run the point twice.
	if m, ok, err := s.store.Get(r.fp); err == nil && ok {
		r.out <- outcome{m: m, source: SourceCache, queueWait: time.Since(r.enqueued)}
		return nil
	}
	rn := &run{fp: r.fp, p: r.p, priority: r.priority, seq: s.runSeq}
	s.join(rn, r)
	if err := s.queue.push(rn); err != nil {
		return err
	}
	s.runSeq++
	s.inflight[r.fp] = rn
	return nil
}

// join adds r to rn's waiters. Callers hold s.mu.
func (s *Service) join(rn *run, r *request) {
	rn.waiters = append(rn.waiters, r)
	rn.live++
	r.run = rn
}

// leave withdraws a request whose context ended from its run. A run left by
// all its requests is cancelled (skipped if queued) and leaves the in-flight
// table, so a later request starts a fresh run, not a share in a cut one.
func (s *Service) leave(r *request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rn := r.run
	if rn == nil || s.inflight[rn.fp] != rn {
		return // served from the store in admit, or the run is over
	}
	if rn.live--; rn.live == 0 {
		delete(s.inflight, rn.fp)
		if rn.cancel != nil {
			rn.cancel()
		}
	}
}

// finish clears a run from the in-flight table and returns its waiters;
// after it no request can attach to the run.
func (s *Service) finish(rn *run) []*request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[rn.fp] == rn {
		delete(s.inflight, rn.fp)
	}
	waiters := rn.waiters
	rn.waiters = nil
	return waiters
}

// failRun delivers an error to every waiter of a run.
func (s *Service) failRun(rn *run, err error) {
	for _, w := range s.finish(rn) {
		w.out <- outcome{err: err}
	}
}

// worker is one engine executor: pop the highest-priority run, execute it
// once, store the result if complete, fan it out to every waiter.
func (s *Service) worker() {
	defer s.workers.Done()
	for {
		rn := s.queue.pop()
		if rn == nil {
			return
		}
		rctx, cancel := context.WithCancel(s.baseCtx)
		s.mu.Lock()
		rn.cancel = cancel
		abandoned := s.inflight[rn.fp] != rn // every request left it queued
		s.mu.Unlock()
		if abandoned {
			cancel()
			s.failRun(rn, context.Canceled)
			continue
		}
		if m, ok, err := s.store.Get(rn.fp); err == nil && ok {
			// Shouldn't happen — admit dedups — but serving the stored
			// value is always correct, so prefer it and count the anomaly.
			cancel()
			s.metrics.RecordDuplicateRun()
			s.deliver(rn, m, nil, 0, time.Now())
			continue
		}
		started := time.Now()
		meas, coll, err := s.runEngine(rctx, rn)
		cancel()
		runTime := time.Since(started)

		if err == nil && meas.Completed >= rn.p.Trials {
			err = s.store.Put(rn.fp, meas)
		}
		if err != nil {
			s.failRun(rn, err)
			continue
		}
		s.deliver(rn, meas, coll, runTime, started)
	}
}

// runEngine calls the engine on rn's point, turning a panic (the
// simulator's answer to a point it cannot build or run) into an error: a bad
// point fails its own run, not the daemon and every job in it. A wedge comes
// back as an error naming the point's fingerprint and wrapping the
// *network.Wedge.
func (s *Service) runEngine(ctx context.Context, rn *run) (m sweep.Measures, coll *metrics.Collector, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *network.Wedge:
			err = fmt.Errorf("service: point %s %w", rn.fp, r)
		default:
			err = fmt.Errorf("service: engine panic: %v", r)
		}
	}()
	m, coll = s.cfg.RunPoint(ctx, rn.p)
	return m, coll, nil
}

// deliver fans a finished run out: the first waiter is the leader (source
// "run", owns the collector), the rest coalesced.
func (s *Service) deliver(rn *run, m sweep.Measures, coll *metrics.Collector, runTime time.Duration, started time.Time) {
	waiters := s.finish(rn)
	for i, w := range waiters {
		o := outcome{
			m: m, source: SourceCoalesced,
			batchSize: len(waiters),
			queueWait: started.Sub(w.enqueued),
			runTime:   runTime,
		}
		if i == 0 {
			o.source = SourceRun
			o.coll = coll
		}
		w.out <- o
	}
}

// register admits a job: it validates the spec, assigns an unused ID when
// the caller gave none, records the job as running and journals it. Fails
// with ErrDraining once a drain has begun, and leaves no trace when it fails.
func (s *Service) register(spec *JobSpec) (*jobState, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	for spec.ID == "" {
		s.jobSeq++
		if id := fmt.Sprintf("job-%06d", s.jobSeq); s.jobs[id] == nil {
			spec.ID = id
		}
	}
	if _, ok := s.jobs[spec.ID]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: duplicate job id %q", spec.ID)
	}
	st := &jobState{
		spec: *spec,
		status: JobStatus{
			ID: spec.ID, State: "running", Total: len(spec.Points),
			Priority: spec.Priority,
		},
		done: make(chan struct{}),
	}
	s.jobs[spec.ID] = st // reserves the ID while the file is written
	s.mu.Unlock()
	var err error
	if s.cfg.DataDir != "" {
		err = atomicWriteJSON(s.jobPath(spec.ID), jobFile{Version: journalVersion, Job: st.spec})
	}
	if err != nil {
		s.mu.Lock()
		delete(s.jobs, spec.ID)
		st.status.State, st.status.Error = "failed", err.Error()
		close(st.done) // releases a Wait that raced the reservation
		s.mu.Unlock()
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	s.metrics.RecordJob(true, false, false)
	return st, nil
}

// Submit registers a job and runs it asynchronously; use Wait or Status to
// observe it. Fails with ErrDraining once a drain has begun.
func (s *Service) Submit(spec JobSpec) (string, error) {
	st, err := s.register(&spec)
	if err != nil {
		return "", err
	}
	s.jobsWG.Add(1)
	go func() { //simcheck:allow nogoroutine -- one runner goroutine per accepted job
		defer s.jobsWG.Done()
		res, err := s.runJob(s.baseCtx, spec, nil)
		s.finishJob(st, res, err)
	}()
	return spec.ID, nil
}

// RunJob runs a job synchronously on the caller's goroutine, streaming
// sweep progress to onProgress (may be nil). The caller's ctx bounds the
// wait; the service's own lifetime bounds the work.
func (s *Service) RunJob(ctx context.Context, spec JobSpec, onProgress func(sweep.Progress)) (*JobResult, error) {
	st, err := s.register(&spec)
	if err != nil {
		return nil, err
	}
	res, err := s.runJob(ctx, spec, onProgress)
	s.finishJob(st, res, err)
	return res, err
}

// validateSpec checks a job spec. The ID arrives from outside and names a
// file, so anything but a plain name is refused (empty means "assign one").
func validateSpec(spec *JobSpec) error {
	if spec.ID != "" && !validJobID(spec.ID) {
		return fmt.Errorf("service: job id %q: want 1-64 characters of [A-Za-z0-9._-], the first not a dot", spec.ID)
	}
	if len(spec.Points) == 0 {
		return errors.New("service: job has no points")
	}
	if spec.Timeout < 0 {
		return fmt.Errorf("service: job timeout %v is negative", spec.Timeout)
	}
	for i := range spec.Points {
		if spec.Points[i].Index != i {
			return fmt.Errorf("service: point %d has Index %d (must equal position)", i, spec.Points[i].Index)
		}
	}
	return nil
}

// runJob executes the job's points as a sweep with the service as the
// point runner — the job queue rides on the sweep engine's worker
// machinery and ordering rather than duplicating it. A point shed, drained,
// cancelled or timed out comes back partial and unstored; a run that itself
// failed (engine panic, wedge, store error) fails the job with that error.
func (s *Service) runJob(ctx context.Context, spec JobSpec, onProgress func(sweep.Progress)) (*JobResult, error) {
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	sources := make([]Source, len(spec.Points))
	// One fingerprint per point per request, carried to the store, the
	// metric row and the PointResult (validateSpec checked Index == position).
	fps := make([]string, len(spec.Points))
	for i := range spec.Points {
		fps[i] = spec.Points[i].Fingerprint()
	}
	var runErr error
	var runFailed sync.Once
	opts := sweep.Options{
		// The sweep workers only wait on the service pool, so match its
		// width: enough to keep every engine worker fed, no more.
		Parallel:     s.cfg.Workers,
		PointTimeout: timeout,
		OnProgress:   onProgress,
		RunPoint: func(pctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
			m, coll, src, err := s.resolve(pctx, p, fps[p.Index], spec.Priority, spec.ID)
			if err != nil {
				if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDraining) && pctx.Err() == nil {
					runFailed.Do(func() { runErr = err })
				}
				// Report the point as not-run so the sweep marks it partial.
				return sweep.Measures{}, nil
			}
			sources[p.Index] = src
			return m, coll
		},
	}
	sum, err := sweep.Run(ctx, spec.Points, opts)
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	if runErr != nil {
		err = runErr
	}
	res := &JobResult{ID: spec.ID, Results: make([]PointResult, len(sum.Results))}
	for i, r := range sum.Results {
		src := sources[i]
		res.Results[i] = PointResult{
			Index:       i,
			Fingerprint: fps[i],
			Source:      src,
			Measures:    r.Measures,
			Partial:     r.Partial,
		}
		if r.Ran && !r.Partial {
			res.Completed++
		}
		if r.Partial {
			res.Partial++
		}
		switch src {
		case SourceCache:
			res.CacheHits++
		case SourceCoalesced:
			res.Coalesced++
		case SourceRun:
			res.Runs++
		default:
			// Point never started (cancelled before dispatch).
		}
	}
	return res, err
}

// finishJob records a job's terminal state, evicts the oldest finished job
// past the retention bound and removes the job's journal file — unless a
// drain cut the job off: then the file stays and a restart resumes the job.
func (s *Service) finishJob(st *jobState, res *JobResult, err error) {
	s.mu.Lock()
	st.status.State = "done"
	if err != nil {
		st.status.State, st.status.Error = "failed", err.Error()
	}
	if res != nil {
		st.status.Result = res
		st.status.Done = res.Completed
	}
	slot := &s.finished[s.finishedN%jobRetention]
	delete(s.jobs, *slot) // finished jobRetention jobs ago ("" until the ring wraps)
	*slot = st.spec.ID
	s.finishedN++
	close(st.done)
	s.mu.Unlock()
	s.metrics.RecordJob(false, err == nil, err != nil)
	if s.cfg.DataDir != "" && s.baseCtx.Err() == nil {
		if rerr := os.Remove(s.jobPath(st.spec.ID)); rerr != nil {
			fmt.Fprintf(os.Stderr, "service: journal: %v\n", rerr)
		}
	}
}

// Wait blocks until the job reaches a terminal state or ctx ends.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	st, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-st.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.status, nil
}

// Status returns a job's current state.
func (s *Service) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return st.status, true
}

// Jobs lists every job in the table (running, or recently finished), by ID.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.jobs[id].status)
	}
	return out
}

// Drain performs graceful shutdown: stop accepting jobs, give in-flight
// jobs until ctx ends to finish, then close the run queue and cancel them
// (the sweep engine stops at trial boundaries; every point that completed is
// already in the store) and stop the worker pool. Jobs cut off keep their
// journal files, so a later New over the same DataDir resumes them.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	s.draining = true
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() { //simcheck:allow nogoroutine -- drain watcher
		s.jobsWG.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		// Grace expired: whatever still runs is cancelled below.
	}
	// The queue closes before the cancel so that a worker whose run is cut
	// off finds nothing more to start, and every run still queued gets a
	// terminal answer rather than a cancelled engine run.
	stranded := s.queue.close()
	s.cancel()
	for _, rn := range stranded {
		s.failRun(rn, ErrDraining)
	}
	<-finished
	s.workers.Wait()
	return nil
}

package service

import (
	"context"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Experiment runs one named paper experiment and returns its table as
// dsmsimctl prints it: the aligned text and a newline, or with req.CSV the
// CSV. Zero sizes take the experiments' defaults, then req.Check refuses
// what no run can give. The table is built on its own Lab under ctx, whose
// points resolve through this service (so repeated or concurrent identical
// points coalesce like any job's) on as many sweep workers as the service
// has engine workers, with the service's DefaultTimeout as the per-point
// timeout. onProgress (may be nil) sees the sweep's progress.
func (s *Service) Experiment(ctx context.Context, req ExperimentRequest, onProgress func(sweep.Progress)) (string, error) {
	if s.Draining() {
		return "", ErrDraining
	}
	if req.K == 0 {
		req.K = experiments.DefaultK
	}
	if req.D == 0 {
		req.D = experiments.DefaultD
	}
	if req.Trials == 0 {
		req.Trials = experiments.DefaultTrials
	}
	if err := req.Check(); err != nil {
		return "", err
	}
	lab := experiments.Lab{Ctx: ctx, Sweep: sweep.Options{
		Parallel:     s.cfg.Workers,
		PointTimeout: s.cfg.DefaultTimeout,
		OnProgress:   onProgress,
		RunPoint:     s.experimentPoint,
	}}
	table, err := lab.Run(req.Name, req.K, req.D, req.Trials)
	if err != nil {
		return "", err
	}
	if req.CSV {
		return table.CSV(), nil
	}
	return table.String() + "\n", nil
}

// experimentPoint is the point runner of Experiment's labs: a point
// resolves through the store, the in-flight table and the worker pool like
// any job's. A point whose own context ended comes back not-run, for the
// sweep to mark partial; any other failure (ErrDraining included) panics
// with the service's error, the experiment layer's convention, which
// Lab.Run returns as the experiment's error.
func (s *Service) experimentPoint(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
	m, coll, _, err := s.Resolve(ctx, p, 0, "experiment")
	if err != nil {
		if ctx.Err() != nil {
			return sweep.Measures{}, nil
		}
		panic(err)
	}
	return m, coll
}

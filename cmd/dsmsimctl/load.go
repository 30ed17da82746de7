package main

//simcheck:allow-file determinism,nogoroutine -- the load subcommand measures wall time by definition

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/load"
	"repro/internal/service"
)

// cmdLoad is the deterministic load-test harness. It generates a request
// schedule from a seeded splitmix stream (request kinds, Zipf-popular
// target points and Poisson arrival offsets are each an independent
// derived stream), drives it against a daemon — open-loop at a target RPS
// or closed-loop with N clients — and reports client-side latency
// percentiles (streaming histogram, documented 5% error bound) plus
// counters cross-checked against the server's own /v1/stats and
// /v1/metrics CSV. With addr empty it self-hosts a daemon on an ephemeral
// port.
//
// Determinism contract: same -seed/-mix/-requests/-universe produce the
// identical request schedule, and against a warm daemon (the default flow
// warms first) the client-side counters are identical across runs —
// -counters-json emits them for byte-comparison.
func cmdLoad(ctx context.Context, addr string, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dsmsimctl load", stderr)
	tpl := load.DefaultTemplate()
	var (
		mode     = fs.String("mode", "closed", "load mode: closed (N clients back to back) or open (fire at -rps regardless of completions)")
		clients  = fs.Int("clients", 8, "closed-loop client count")
		rps      = fs.Float64("rps", 100, "open-loop arrival rate (requests/sec)")
		requests = fs.Int("requests", 200, "schedule length")
		seed     = fs.Uint64("seed", 1, "master seed for every derived stream")
		universe = fs.Int("universe", 32, "distinct points requests draw from")
		zipfS    = fs.Float64("zipf", 1.0, "Zipf popularity exponent over the universe (0 = uniform)")
		mixSpec  = fs.String("mix", "", "request mix, e.g. run=6,async=1,result=2,stats=1 (default that blend)")
		expName  = fs.String("experiment-name", "", "grid experiment (e.g. latency) to run for experiment-kind requests, at the daemon's default size (required iff the mix includes them)")
		prefix   = fs.String("prefix", "", "job-ID prefix (must be unique per daemon lifetime; default derives from the PID)")
		timeout  = fs.Duration("timeout", 0, "per-point job timeout sent with submissions (0 = daemon default)")
		warm     = fs.Bool("warm", true, "run one job over the whole universe first so the load run hits a warm cache")
		verify   = fs.Bool("verify", true, "cross-check client counters against /v1/stats and /v1/metrics; exit 1 on mismatch")
		noAwait  = fs.Bool("no-async-wait", false, "leave async jobs running when the schedule ends (soak testing)")
		counters = fs.String("counters-json", "", "write the client-side counters as JSON to this file (- for stdout)")

		// Self-hosted daemon knobs (ignored with -addr).
		workers    = fs.Int("workers", 4, "self-hosted daemon: engine worker pool size")
		cache      = fs.Int("cache", 0, "self-hosted daemon: memory cache entries (0 = unbounded)")
		queueDepth = fs.Int("queue-depth", 1024, "self-hosted daemon: run queue bound")
		data       = fs.String("data", "", "self-hosted daemon: data directory (empty = memory only)")
	)
	fs.IntVar(&tpl.K, "k", tpl.K, "universe point: mesh dimension")
	fs.IntVar(&tpl.D, "d", tpl.D, "universe point: sharers to invalidate")
	fs.StringVar(&tpl.Scheme, "scheme", tpl.Scheme, "universe point: invalidation scheme")
	fs.StringVar(&tpl.Pattern, "pattern", tpl.Pattern, "universe point: sharer placement")
	fs.IntVar(&tpl.Trials, "trials", tpl.Trials, "universe point: trials per point")
	if fs.Parse(args) != nil {
		return errUsage
	}

	// Every flag is checked before a daemon starts or a request is sent.
	if *mode != "closed" && *mode != "open" {
		return usagef("load: unknown -mode %q (want open or closed)", *mode)
	}
	if *mode == "closed" && *clients <= 0 {
		return usagef("load: closed mode needs -clients > 0")
	}
	mix := load.DefaultMix()
	if *mixSpec != "" {
		var err error
		if mix, err = load.ParseMix(*mixSpec); err != nil {
			return usagef("%v", err)
		}
	}
	if mix.Experiment > 0 && *expName == "" {
		return usagef("load: the mix has experiment requests but no -experiment-name")
	}
	uni, err := load.NewUniverse(tpl, *seed, *universe)
	if err != nil {
		return usagef("%v", err)
	}
	schedule, err := load.GenSchedule(load.ScheduleConfig{
		Seed: *seed, Requests: *requests, RPS: *rps, Mix: mix,
		Universe: *universe, ZipfS: *zipfS,
	})
	if err != nil {
		return usagef("%v", err)
	}

	if addr == "" {
		store, err := service.OpenStore(*data, *cache)
		if err != nil {
			return err
		}
		daemon, err := service.StartDaemon(service.DaemonConfig{Service: service.Config{
			Workers: *workers, QueueDepth: *queueDepth, Store: store, DataDir: *data,
		}})
		if err != nil {
			return err
		}
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := daemon.Shutdown(shCtx); err != nil {
				fmt.Fprintf(stderr, "dsmsimctl load: daemon shutdown: %v\n", err)
			}
		}()
		addr = daemon.BaseURL()
		fmt.Fprintf(stderr, "dsmsimctl load: self-hosted daemon on %s\n", daemon.Addr())
	}

	c := load.NewClient(addr)
	jobPrefix := *prefix
	if jobPrefix == "" {
		jobPrefix = fmt.Sprintf("load-%d", os.Getpid())
	}

	if *warm {
		start := time.Now()
		jr := service.JobRequest{ID: jobPrefix + "-warm", Points: uni.Specs, TimeoutMS: timeout.Milliseconds()}
		if err := c.Submit(ctx, jr, load.Wait, nil); err != nil {
			return fmt.Errorf("warm job: %w", err)
		}
		fmt.Fprintf(stderr, "dsmsimctl load: warmed %d universe points in %s\n", *universe, time.Since(start).Round(time.Millisecond))
	}

	runCfg := load.Config{
		BaseURL:        addr,
		Schedule:       schedule,
		Universe:       uni,
		JobPrefix:      jobPrefix,
		ExperimentName: *expName,
		Timeout:        *timeout,
		SkipAsyncWait:  *noAwait,
	}
	if *mode == "closed" {
		runCfg.Clients = *clients
	}
	res, err := load.Run(ctx, runCfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%d requests in %s (%.0f req/s, mix %s, %s loop)\n\n",
		*requests, res.Wall.Round(time.Millisecond),
		float64(*requests)/res.Wall.Seconds(), mix, *mode)
	fmt.Fprintln(stdout, load.PercentileTable(res).String())

	var v *load.Verification
	if *verify {
		var csv strings.Builder
		if err := c.Get(ctx, "/v1/metrics", &csv); err != nil {
			return err
		}
		v = load.Verify(res, csv.String())
		fmt.Fprintln(stdout, load.CounterTable(res, v).String())
		if v.OK() {
			fmt.Fprintf(stdout, "verify ok: %d CSV rows reconciled, 0 duplicate runs\n", v.CSVRows)
		}
		for _, f := range v.Failures {
			fmt.Fprintln(stderr, "dsmsimctl load: VERIFY FAIL: "+f)
		}
	}

	if *counters != "" {
		enc, err := json.MarshalIndent(res.Counters, "", "  ")
		if err != nil {
			return err
		}
		enc = append(enc, '\n')
		if *counters == "-" {
			_, err = stdout.Write(enc)
		} else {
			err = os.WriteFile(*counters, enc, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if v != nil && !v.OK() {
		return errors.New("verification failed")
	}
	return nil
}

// cmdStudy prints the deterministic LRU capacity vs hit-rate study.
func cmdStudy(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dsmsimctl study", stderr)
	seed := fs.Uint64("seed", 1, "master seed of the study's request streams")
	asCSV := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if fs.Parse(args) != nil {
		return errUsage
	}
	t := load.CacheStudy(load.StudyConfig{Seed: *seed})
	var err error
	if *asCSV {
		_, err = io.WriteString(stdout, t.CSV())
	} else {
		_, err = fmt.Fprintln(stdout, t.String())
	}
	return err
}

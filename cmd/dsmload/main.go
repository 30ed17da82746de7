// Command dsmload is the deterministic load-test harness for the dsmsimd
// daemon. It generates a request schedule from a seeded splitmix stream
// (request kinds, Zipf-popular target points and Poisson arrival offsets
// are each an independent derived stream), drives it against a daemon —
// open-loop at a target RPS or closed-loop with N clients — and reports
// client-side latency percentiles (streaming histogram, documented 5%
// error bound) plus counters cross-checked against the server's own
// /v1/stats and /v1/metrics CSV.
//
// Modes:
//
//	dsmload                          # self-host a daemon, warm, run, verify
//	dsmload -addr http://host:8077   # drive an external daemon
//	dsmload -study                   # LRU capacity vs hit rate study (deterministic)
//
// Determinism contract: same -seed/-mix/-requests/-universe produce the
// identical request schedule, and against a warm daemon (the default
// self-hosted flow warms first) the client-side counters are identical
// across runs — -counters-json emits them for byte-comparison.
package main

//simcheck:allow-file determinism,nogoroutine -- a load-test CLI measures wall time by definition

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/load"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsmload: ")
	var (
		addr     = flag.String("addr", "", "daemon base URL (e.g. http://127.0.0.1:8077); empty self-hosts one on an ephemeral port")
		mode     = flag.String("mode", "closed", "load mode: closed (N clients back to back) or open (fire at -rps regardless of completions)")
		clients  = flag.Int("clients", 8, "closed-loop client count")
		rps      = flag.Float64("rps", 100, "open-loop arrival rate (requests/sec)")
		requests = flag.Int("requests", 200, "schedule length")
		seed     = flag.Uint64("seed", 1, "master seed for every derived stream")
		universe = flag.Int("universe", 32, "distinct points requests draw from")
		zipfS    = flag.Float64("zipf", 1.0, "Zipf popularity exponent over the universe (0 = uniform)")
		mixSpec  = flag.String("mix", "", "request mix, e.g. run=6,async=1,result=2,stats=1 (default that blend)")
		expName  = flag.String("experiment-name", "", "grid experiment (e.g. latency) to run for experiment-kind requests, at the daemon's default size (required iff the mix includes them)")
		prefix   = flag.String("prefix", "", "job-ID prefix (must be unique per daemon lifetime; default derives from the PID)")
		timeout  = flag.Duration("timeout", 0, "per-point job timeout sent with submissions (0 = daemon default)")
		warm     = flag.Bool("warm", true, "run one job over the whole universe first so the load run hits a warm cache")
		verify   = flag.Bool("verify", true, "cross-check client counters against /v1/stats and /v1/metrics; exit 1 on mismatch")
		noAwait  = flag.Bool("no-async-wait", false, "leave async jobs running when the schedule ends (soak testing)")
		counters = flag.String("counters-json", "", "write the client-side counters as JSON to this file (- for stdout)")

		study = flag.Bool("study", false, "run the deterministic LRU capacity vs hit-rate study and exit")
		sCSV  = flag.Bool("study-csv", false, "emit the study as CSV instead of an aligned table")

		// Self-hosted daemon knobs (ignored with -addr).
		workers    = flag.Int("workers", 4, "self-hosted daemon: engine worker pool size")
		cache      = flag.Int("cache", 0, "self-hosted daemon: memory cache entries (0 = unbounded)")
		queueDepth = flag.Int("queue-depth", 1024, "self-hosted daemon: run queue bound")
		data       = flag.String("data", "", "self-hosted daemon: data directory (empty = memory only)")

		// Universe point template.
		k       = flag.Int("k", 4, "universe point: mesh dimension")
		d       = flag.Int("d", 2, "universe point: sharers to invalidate")
		scheme  = flag.String("scheme", "MI-MA-pa", "universe point: invalidation scheme")
		pattern = flag.String("pattern", "clustered", "universe point: sharer placement")
		trials  = flag.Int("trials", 2, "universe point: trials per point")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *study {
		runStudy(*seed, *sCSV)
		return
	}

	mix := load.DefaultMix()
	if *mixSpec != "" {
		var err error
		mix, err = load.ParseMix(*mixSpec)
		if err != nil {
			log.Fatal(err)
		}
	}

	baseURL := *addr
	if baseURL == "" {
		store, err := service.OpenStore(*data, *cache)
		if err != nil {
			log.Fatal(err)
		}
		daemon, err := service.StartDaemon(service.DaemonConfig{Service: service.Config{
			Workers: *workers, QueueDepth: *queueDepth, Store: store, DataDir: *data,
		}})
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := daemon.Shutdown(shCtx); err != nil {
				log.Printf("daemon shutdown: %v", err)
			}
		}()
		baseURL = daemon.BaseURL()
		fmt.Fprintf(os.Stderr, "dsmload: self-hosted daemon on %s\n", daemon.Addr())
	}

	jobPrefix := *prefix
	if jobPrefix == "" {
		jobPrefix = fmt.Sprintf("load-%d", os.Getpid())
	}

	tpl := load.PointTemplate{K: *k, Scheme: *scheme, D: *d, Pattern: *pattern, Trials: *trials}
	uni, err := load.NewUniverse(tpl, *seed, *universe)
	if err != nil {
		log.Fatal(err)
	}
	schedule, err := load.GenSchedule(load.ScheduleConfig{
		Seed: *seed, Requests: *requests, RPS: *rps, Mix: mix,
		Universe: *universe, ZipfS: *zipfS,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *warm {
		start := time.Now()
		if _, err := load.Warm(ctx, baseURL, uni, jobPrefix, *timeout); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dsmload: warmed %d universe points in %s\n", *universe, time.Since(start).Round(time.Millisecond))
	}

	runCfg := load.Config{
		BaseURL:        baseURL,
		Schedule:       schedule,
		Universe:       uni,
		JobPrefix:      jobPrefix,
		ExperimentName: *expName,
		Timeout:        *timeout,
		SkipAsyncWait:  *noAwait,
	}
	if *mode == "closed" {
		runCfg.Clients = *clients
	} else if *mode != "open" {
		log.Fatalf("unknown -mode %q (want open or closed)", *mode)
	}

	res, err := load.Run(ctx, runCfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d requests in %s (%.0f req/s, mix %s, %s loop)\n\n",
		*requests, res.Wall.Round(time.Millisecond),
		float64(*requests)/res.Wall.Seconds(), mix, *mode)
	fmt.Println(load.PercentileTable(res).String())

	var v *load.Verification
	if *verify {
		csv, err := load.NewClient(baseURL).MetricsCSV(ctx)
		if err != nil {
			log.Fatal(err)
		}
		v = load.Verify(res, csv)
		fmt.Println(load.CounterTable(res, v).String())
		if !v.OK() {
			for _, f := range v.Failures {
				fmt.Fprintln(os.Stderr, "dsmload: VERIFY FAIL: "+f)
			}
		} else {
			fmt.Printf("verify ok: %d CSV rows reconciled, 0 duplicate runs\n", v.CSVRows)
		}
	}

	if *counters != "" {
		enc, err := json.MarshalIndent(res.Counters, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		enc = append(enc, '\n')
		if *counters == "-" {
			os.Stdout.Write(enc)
		} else if err := os.WriteFile(*counters, enc, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if v != nil && !v.OK() {
		stop()
		os.Exit(1)
	}
}

// runStudy prints the deterministic cache-sizing study.
func runStudy(seed uint64, asCSV bool) {
	t := load.CacheStudy(load.StudyConfig{Seed: seed})
	if asCSV {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t.String())
}

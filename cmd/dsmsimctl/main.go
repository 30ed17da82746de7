// Command dsmsimctl is the repository's one binary: it runs the paper's
// experiments, serves them as a daemon, drives that daemon as a client and
// load-tests it, and traces single sweep points.
//
//	dsmsimctl [-addr URL] experiment -name latency|...|all [-k 16] [-d 16] [-trials 10] [-csv]
//	dsmsimctl experiment -name all [-data dir] [-parallel N] [-point-timeout T]
//	dsmsimctl [-addr URL] serve [-workers 4] [-data dir] [-drain-grace 30s] ...
//	dsmsimctl [-addr URL] run -k 8 -scheme MI-MA-ec -d 6 -pattern random -trials 4 -seed 1 [-stream | -async]
//	dsmsimctl [-addr URL] jobs | stats | metrics | health
//	dsmsimctl [-addr URL] result -fp <fingerprint>
//	dsmsimctl [-addr URL] load [flags]
//	dsmsimctl study [-csv] [-seed N]
//	dsmsimctl trace [-point JSON] [-top K] [-occupancy] [-events] ...
//
// -addr is the daemon's address, as host:port or as a URL; it defaults to
// http://127.0.0.1:8077, where serve listens. Without -addr, experiment runs
// in process and load self-hosts a daemon on an ephemeral port.
//
// experiment renders named experiments (experiments.RunnerOrder; all runs
// each in turn). In process it builds a service with no HTTP server — the
// result store -data names (memory when empty), -parallel engine workers
// (0, the default, is every core) and a -point-timeout per point — and
// calls Service.Experiment, the method the daemon's experiment endpoint
// calls, so both modes print the same bytes at any worker count. A point
// stored in the directory is never rerun, and a point two experiments share
// runs once; an interrupt (ctrl-C) stops at the next trial boundary and
// prints the partial table. Progress and a closing "N points from the
// store, M run" line go to stderr; stdout carries only the tables. With
// -addr the experiment runs on that daemon instead, one request per name.
//
// serve is the simulation-as-a-service daemon (see internal/service): a
// priority job queue, an in-flight coalescing table and a content-addressed
// result cache behind HTTP/JSON. SIGINT or SIGTERM drains it: intake closes,
// in-flight jobs get -drain-grace to finish, and a job cut off keeps its
// file under -data's jobs/ for a restart over the same directory to resume.
//
// Every other daemon subcommand reaches the daemon through load.Client; run
// -stream prints the NDJSON progress lines as they arrive. A command line a
// subcommand refuses exits 2 before any store is opened or request sent.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/load"
	"repro/internal/service"
	"repro/internal/sweep"
)

const defaultAddr = "http://127.0.0.1:8077"

const usage = "usage: dsmsimctl [-addr URL] <experiment|serve|run|jobs|stats|metrics|result|health|load|study|trace> [flags]"

// errUsage marks a command line a subcommand refuses; dsmsimctl exits 2 on
// it. A bare errUsage follows a parse error the flag set has printed.
var errUsage = errors.New("usage")

func usagef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(ctl(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// ctl runs one dsmsimctl command line and returns its exit code: 0 on
// success, 1 when a request or a check fails, 2 for a bad command line.
// The first SIGINT or SIGTERM ends ctx, and a second one kills the process;
// trace and study watch no context, so for them the first one kills.
func ctl(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("dsmsimctl", stderr)
	addr := fs.String("addr", "", "daemon address, host:port or URL (default "+defaultAddr+"; without it experiment runs in process and load self-hosts a daemon)")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	cmd, args := fs.Arg(0), fs.Args()[1:]
	if cmd != "trace" && cmd != "study" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		context.AfterFunc(ctx, stop)
		defer stop()
	}
	base := *addr
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := load.NewClient(cmp.Or(base, defaultAddr))
	var err error
	switch cmd {
	case "experiment":
		err = cmdExperiment(ctx, base, args, stdout, stderr)
	case "serve":
		err = cmdServe(ctx, cmp.Or(base, defaultAddr), args, stderr)
	case "run":
		err = cmdRun(ctx, c, args, stdout, stderr)
	case "jobs", "stats", "metrics":
		err = c.Get(ctx, "/v1/"+cmd, stdout)
	case "health":
		err = c.Get(ctx, "/healthz", stdout)
	case "result":
		err = cmdResult(ctx, c, args, stdout, stderr)
	case "load":
		err = cmdLoad(ctx, base, args, stdout, stderr)
	case "study":
		err = cmdStudy(args, stdout, stderr)
	case "trace":
		err = cmdTrace(args, stdout, stderr)
	default:
		fmt.Fprintln(stderr, usage)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		if err != errUsage {
			fmt.Fprintf(stderr, "dsmsimctl: %v\n", err)
		}
		return 2
	default:
		fmt.Fprintf(stderr, "dsmsimctl: %s: %v\n", cmd, err)
		return 1
	}
}

// newFlagSet returns a flag set that reports to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// cmdExperiment renders the named experiments, on the daemon at base or,
// when base is empty, in process.
func cmdExperiment(ctx context.Context, base string, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dsmsimctl experiment", stderr)
	name := fs.String("name", "", "experiment name (experiments.RunnerOrder), or all for each in turn")
	k := fs.Int("k", experiments.DefaultK, "mesh dimension for the sweeps")
	d := fs.Int("d", experiments.DefaultD, "sharers for fixed-d experiments")
	trials := fs.Int("trials", experiments.DefaultTrials, "trials per configuration")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	data := fs.String("data", "", "in process: result directory; stored points are not rerun, completed ones are stored (empty = in memory for this run)")
	parallel := fs.Int("parallel", 0, "in process: engine workers (0 = all cores)")
	timeout := fs.Duration("point-timeout", 0, "in process: wall-clock budget per sweep point (0 = none); an overrunning point is partial, unstored, and retried by a rerun")
	if fs.Parse(args) != nil {
		return errUsage
	}
	names := []string{*name}
	switch *name {
	case "":
		return usagef("experiment: -name is required")
	case "all":
		names = experiments.RunnerOrder
	}
	req := service.ExperimentRequest{K: *k, D: *d, Trials: *trials, CSV: *csv}
	for _, n := range names {
		req.Name = n
		if err := req.Check(); err != nil {
			return usagef("experiment: %v", err)
		}
	}
	if base != "" {
		var local []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "data" || f.Name == "parallel" || f.Name == "point-timeout" {
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			return usagef("experiment: %s configure an in-process run; the daemon at -addr has its own", strings.Join(local, ", "))
		}
		c := load.NewClient(base)
		for _, n := range names {
			req.Name = n
			if err := c.Experiment(ctx, req, stdout); err != nil {
				return err
			}
		}
		return nil
	}
	if err := (sweep.Options{Parallel: *parallel, PointTimeout: *timeout}).Validate(); err != nil {
		return usagef("experiment: %v", err)
	}
	store, err := service.OpenStore(*data, 0)
	if err != nil {
		return err
	}
	workers := *parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := service.Config{Workers: workers, Store: store, DefaultTimeout: *timeout}
	return experimentInProcess(ctx, cfg, req, names, stdout, stderr)
}

// experimentInProcess renders names on a service built from cfg, with no
// HTTP server: each table goes to stdout as soon as it is complete, and
// progress, then how the points were resolved, to stderr. An interrupt
// prints the partial table of the experiment it cut and skips the rest.
func experimentInProcess(ctx context.Context, cfg service.Config, req service.ExperimentRequest, names []string, stdout, stderr io.Writer) error {
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer func() {
		// With no job registered, a drain cancels at once whatever run an
		// interrupt left on the engine workers.
		_ = svc.Drain(context.Background())
		c := svc.Metrics().Counters()
		fmt.Fprintf(stderr, "dsmsimctl experiment: %d points from the store, %d run\n", c.CacheHits, c.Runs)
	}()
	progress := sweep.Reporter(stderr, time.Second)
	for _, n := range names {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "dsmsimctl experiment: interrupted; skipping remaining experiments from %q on\n", n)
			break
		}
		req.Name = n
		table, err := svc.Experiment(ctx, req, progress)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(stdout, table); err != nil {
			return err
		}
	}
	return nil
}

// cmdServe runs the daemon on the host:port of base until ctx ends, then
// drains it.
func cmdServe(ctx context.Context, base string, args []string, stderr io.Writer) error {
	fs := newFlagSet("dsmsimctl serve", stderr)
	workers := fs.Int("workers", 4, "engine worker pool size")
	queueDepth := fs.Int("queue-depth", 1024, "run queue bound; beyond it submissions get 503")
	cache := fs.Int("cache", 4096, "in-memory result cache entries (0 = unbounded)")
	data := fs.String("data", "", "data directory: results/ is the durable result store, jobs/ holds one file per unfinished job (empty = memory only)")
	drainGrace := fs.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight jobs before cancelling them")
	timeout := fs.Duration("point-timeout", 0, "default per-point wall-clock budget (0 = none)")
	if fs.Parse(args) != nil {
		return errUsage
	}
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return usagef("serve: -addr %q is neither host:port nor a URL", base)
	}
	store, err := service.OpenStore(*data, *cache)
	if err != nil {
		return err
	}
	daemon, err := service.StartDaemon(service.DaemonConfig{Addr: u.Host, Service: service.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		Store:          store,
		DataDir:        *data,
	}})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dsmsimctl serve: serving on %s (workers=%d cache=%d data=%q)\n",
		daemon.Addr(), *workers, *cache, *data)

	<-ctx.Done() //simcheck:allow nogoroutine -- serve blocks until SIGINT or SIGTERM

	fmt.Fprintln(stderr, "dsmsimctl serve: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := daemon.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := daemon.Err(); err != nil {
		return err
	}
	fmt.Fprintln(stderr, "dsmsimctl serve: drained cleanly")
	return nil
}

func cmdRun(ctx context.Context, c *load.Client, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dsmsimctl run", stderr)
	k := fs.Int("k", 8, "mesh dimension")
	scheme := fs.String("scheme", "MI-MA-ec", "invalidation scheme name")
	d := fs.Int("d", 6, "sharers per invalidation")
	pattern := fs.String("pattern", "random", "sharer placement pattern")
	trials := fs.Int("trials", 4, "trials")
	seed := fs.Uint64("seed", 1, "base seed")
	chaos := fs.Uint64("chaos-seed", 0, "chaos event-order seed (0 = off)")
	priority := fs.Int("priority", 0, "job priority (higher runs first)")
	timeout := fs.Duration("timeout", 0, "per-point budget (0 = daemon default)")
	stream := fs.Bool("stream", false, "stream NDJSON progress instead of waiting silently")
	async := fs.Bool("async", false, "submit and return the job ID without waiting")
	if fs.Parse(args) != nil {
		return errUsage
	}
	mode := load.Wait
	switch {
	case *stream && *async:
		return usagef("run: -stream and -async exclude each other")
	case *stream:
		mode = load.Stream
	case *async:
		mode = load.Async
	}
	return c.Submit(ctx, service.JobRequest{
		Points: []service.PointSpec{{
			K: *k, Scheme: *scheme, D: *d, Pattern: *pattern,
			Trials: *trials, Seed: *seed, ChaosSeed: *chaos,
		}},
		Priority:  *priority,
		TimeoutMS: timeout.Milliseconds(),
	}, mode, stdout)
}

func cmdResult(ctx context.Context, c *load.Client, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dsmsimctl result", stderr)
	fp := fs.String("fp", "", "result fingerprint")
	if fs.Parse(args) != nil {
		return errUsage
	}
	if *fp == "" {
		return usagef("result: -fp is required")
	}
	return c.Get(ctx, "/v1/results/"+url.PathEscape(*fp), stdout)
}

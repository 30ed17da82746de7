// Command dsmsimctl is the client for the dsmsimd daemon and its load-test
// harness.
//
//	dsmsimctl [-addr URL] experiment -name latency [-k 8] [-trials 2] [-csv]
//	dsmsimctl [-addr URL] run -k 8 -scheme MI-MA-pa -d 6 -pattern random -trials 4 -seed 1 [-stream | -async]
//	dsmsimctl [-addr URL] jobs | stats | metrics | health
//	dsmsimctl [-addr URL] result -fp <fingerprint>
//	dsmsimctl [-addr URL] load [flags]
//	dsmsimctl study [-csv] [-seed N]
//
// Every subcommand reaches the daemon through load.Client. -addr defaults
// to http://127.0.0.1:8077, except for load, which self-hosts a daemon on
// an ephemeral port when -addr is not given. The experiment subcommand
// prints the daemon's body verbatim, so its output is byte-identical to the
// invalsweep CLI run with the same parameters — the smoke test in CI diffs
// the two — and run -stream prints the NDJSON progress lines as they
// arrive.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/load"
	"repro/internal/service"
)

const defaultAddr = "http://127.0.0.1:8077"

const usage = "usage: dsmsimctl [-addr URL] <experiment|run|jobs|stats|metrics|result|health|load|study> [flags]"

// errUsage marks a command line a subcommand refuses; dsmsimctl exits 2 on
// it. A bare errUsage follows a parse error the flag set has printed.
var errUsage = errors.New("usage")

func usagef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := ctl(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// ctl runs one dsmsimctl command line and returns its exit code: 0 on
// success, 1 when a request or a check fails, 2 for a bad command line.
func ctl(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("dsmsimctl", stderr)
	addr := fs.String("addr", "", "daemon base URL (default "+defaultAddr+"; load self-hosts a daemon without it)")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	cmd, args := fs.Arg(0), fs.Args()[1:]
	base := *addr
	if base == "" {
		base = defaultAddr
	}
	c := load.NewClient(base)
	var err error
	switch cmd {
	case "experiment":
		err = cmdExperiment(ctx, c, args, stdout, stderr)
	case "run":
		err = cmdRun(ctx, c, args, stdout, stderr)
	case "jobs", "stats", "metrics":
		err = c.Get(ctx, "/v1/"+cmd, stdout)
	case "health":
		err = c.Get(ctx, "/healthz", stdout)
	case "result":
		err = cmdResult(ctx, c, args, stdout, stderr)
	case "load":
		err = cmdLoad(ctx, *addr, args, stdout, stderr)
	case "study":
		err = cmdStudy(args, stdout, stderr)
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

func cmdExperiment(ctx context.Context, c *load.Client, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dsmsimctl experiment", stderr)
	name := fs.String("name", "", "experiment name (see invalsweep -experiment)")
	k := fs.Int("k", 0, fmt.Sprintf("mesh dimension (0 = invalsweep's default, %d)", experiments.DefaultK))
	d := fs.Int("d", 0, fmt.Sprintf("sharers (0 = invalsweep's default, %d)", experiments.DefaultD))
	trials := fs.Int("trials", 0, fmt.Sprintf("trials (0 = invalsweep's default, %d)", experiments.DefaultTrials))
	csv := fs.Bool("csv", false, "emit CSV instead of the aligned table")
	if fs.Parse(args) != nil {
		return errUsage
	}
	if *name == "" {
		return usagef("experiment: -name is required")
	}
	return c.Experiment(ctx, service.ExperimentRequest{
		Name: *name, K: *k, D: *d, Trials: *trials, CSV: *csv,
	}, stdout)
}

func cmdRun(ctx context.Context, c *load.Client, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dsmsimctl run", stderr)
	k := fs.Int("k", 8, "mesh dimension")
	scheme := fs.String("scheme", "MI-MA-pa", "invalidation scheme name")
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

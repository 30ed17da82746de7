// Command dsmsimctl is the client for the dsmsimd daemon.
//
//	dsmsimctl [-addr URL] experiment -name latency [-k 8] [-trials 2] [-csv]
//	dsmsimctl [-addr URL] run -k 8 -scheme MI-MA-pa -d 6 -pattern random -trials 4 -seed 1
//	dsmsimctl [-addr URL] jobs | stats | metrics
//	dsmsimctl [-addr URL] result -fp <fingerprint>
//
// The experiment subcommand prints the daemon's body verbatim, so its
// output is byte-identical to the invalsweep CLI run with the same
// parameters — the smoke test in CI diffs the two.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/experiments"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8077", "daemon base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	var err error
	switch args[0] {
	case "experiment":
		err = cmdExperiment(*addr, args[1:])
	case "run":
		err = cmdRun(*addr, args[1:])
	case "jobs":
		err = get(*addr, "/v1/jobs")
	case "stats":
		err = get(*addr, "/v1/stats")
	case "metrics":
		err = get(*addr, "/v1/metrics")
	case "result":
		err = cmdResult(*addr, args[1:])
	case "health":
		err = get(*addr, "/healthz")
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmsimctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dsmsimctl [-addr URL] <experiment|run|jobs|stats|metrics|result|health> [flags]")
	os.Exit(2)
}

// do sends a request and streams the body to stdout; non-2xx is an error
// carrying the body.
func do(req *http.Request) error {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func get(addr, path string) error {
	req, err := http.NewRequest(http.MethodGet, addr+path, nil)
	if err != nil {
		return err
	}
	return do(req)
}

func postJSON(addr, path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(req)
}

func cmdExperiment(addr string, args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	name := fs.String("name", "", "experiment name (see invalsweep -experiment)")
	k := fs.Int("k", 0, fmt.Sprintf("mesh dimension (0 = invalsweep's default, %d)", experiments.DefaultK))
	d := fs.Int("d", 0, fmt.Sprintf("sharers (0 = invalsweep's default, %d)", experiments.DefaultD))
	trials := fs.Int("trials", 0, fmt.Sprintf("trials (0 = invalsweep's default, %d)", experiments.DefaultTrials))
	csv := fs.Bool("csv", false, "emit CSV instead of the aligned table")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("experiment: -name is required")
	}
	return postJSON(addr, "/v1/experiments", service.ExperimentRequest{
		Name: *name, K: *k, D: *d, Trials: *trials, CSV: *csv,
	})
}

func cmdRun(addr string, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
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
	fs.Parse(args)

	jr := service.JobRequest{
		Points: []service.PointSpec{{
			K: *k, Scheme: *scheme, D: *d, Pattern: *pattern,
			Trials: *trials, Seed: *seed, ChaosSeed: *chaos,
		}},
		Priority:  *priority,
		TimeoutMS: timeout.Milliseconds(),
	}
	switch {
	case *async:
		return postJSON(addr, "/v1/jobs", jr)
	case *stream:
		return postJSON(addr, "/v1/jobs?stream=1", jr)
	default:
		return postJSON(addr, "/v1/jobs?wait=1", jr)
	}
}

func cmdResult(addr string, args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	fp := fs.String("fp", "", "result fingerprint")
	fs.Parse(args)
	if *fp == "" {
		return fmt.Errorf("result: -fp is required")
	}
	return get(addr, "/v1/results/"+*fp)
}

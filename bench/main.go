// Command bench is the repository's layered benchmark: five workloads over
// the simulator (inval-sweep, net-traffic, app-replay) and the serving
// daemon (serve-warm, serve-tiered), end-to-end metrics measured with tracing
// off, and a traced run that adds per-layer probes, spans and an attribution
// of the window to layers. BENCHMARK.json at the repository root declares
// the command, the workloads and every metric by name; README.md in this
// directory says why each is there and how to read them.
//
// Usage (from the repository root):
//
//	go run ./bench                                   # all five workloads, untraced
//	go run ./bench -trace 1                          # ... then traced, with layer probes
//	go run ./bench -workload serve-tiered -seed 3     # one workload; last stdout line is the result
//	go run ./bench -repeat 2                         # the untraced set twice, compared against the bounds
//	go run ./bench -update-fingerprint -seed 1       # rewrite testdata/fingerprint-seed1.json
//
// It measures every layer from outside: it times calls into public functions
// and wraps the two injection seams the program already has
// (sweep.Options.RunPoint, service.Config.RunPoint / Store). It owns its
// clock, request loop and percentile arithmetic.
package main

//simcheck:allow-file determinism,nogoroutine -- a benchmark driver: wall-clock timing, child processes and client goroutines by design

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	trace    int
	out      string
	repeat   int
	update   bool
	probes   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (inval-sweep, net-traffic, app-replay, serve-warm, serve-tiered); empty runs all five in child processes")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; every input derives from it through sim.DeriveSeed")
	flag.Float64Var(&o.seconds, "seconds", nominalSeconds, "target length of the measured window; work is a fixed constant times seconds/12, never calibrated")
	flag.Float64Var(&o.scale, "scale", 0, "work scale, overriding -seconds (1 = the nominal 12 s sizes; 0.01 is the smoke test)")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans, runs the layer probes and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "o", "", "also write the metrics of an all-workloads run to this JSON file")
	flag.IntVar(&o.repeat, "repeat", 0, "run the untraced set this many times in fresh processes and compare the runs against the metrics' bounds")
	flag.BoolVar(&o.update, "update-fingerprint", false, "rewrite this seed's pinned simulated statistics (bench/testdata) from the run")
	flag.StringVar(&o.probes, "probes", "", "with -trace 1: read the layer probes from this file, or run them and write it if it does not exist (an all-workloads run probes once, in its first child)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if o.scale == 0 {
		o.scale = o.seconds / nominalSeconds
	}
	if o.scale <= 0 {
		fatal(fmt.Errorf("-seconds and -scale must be positive"))
	}
	dir, err := benchDir()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		fatal(err)
	}
	c := config{seed: o.seed, scale: o.scale, dir: dir}

	switch {
	case o.repeat > 0:
		if !repeatRuns(o, c, os.Stdout) {
			os.Exit(1)
		}
	case o.workload != "":
		if !single(o, c) {
			os.Exit(1)
		}
	default:
		rep, err := allWorkloads(o, c, os.Stdout, workloadNames(false))
		if err != nil {
			fatal(err)
		}
		if o.out != "" {
			if err := os.WriteFile(o.out, append(mustIndent(rep), '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
		if !rep.healthy() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// sharedProbes runs the layer probes, or, under an all-workloads run, reads
// what the first child measured: the probes do not depend on the workload, so
// the first traced child runs them and writes the file for the other four.
// (They cannot run in the parent: Linux hands a process's RSS high-water mark
// down through fork and exec, so every child would report the probes' peak.)
func sharedProbes(path string, c config) (*probes, error) {
	if path != "" {
		if data, err := os.ReadFile(path); err == nil {
			pr := &probes{}
			if err := json.Unmarshal(data, pr); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return pr, nil
		}
	}
	pr, err := runProbes(c)
	if err != nil || path == "" {
		return pr, err
	}
	return pr, os.WriteFile(path, mustJSON(pr), 0o644)
}

// benchDir finds the benchmark's own directory from the repository root (the
// documented working directory) or from inside it (go test).
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "testdata")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "probes.go")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("run from the repository root (go run ./bench): bench/testdata not found")
}

func workloadNames(reverse bool) []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if reverse {
			names[len(workloads)-1-i] = w.name
		} else {
			names[i] = w.name
		}
	}
	return names
}

// single runs one workload in this process and prints the result line last.
func single(o options, c config) bool {
	def, ok := findWorkload(o.workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(false), ", ")))
	}
	pins := pinSet{} // an updating run has nothing to compare against yet
	if !o.update {
		var err error
		if pins, err = loadPins(o.seed); err != nil {
			fatal(err)
		}
	}
	traced := o.trace != 0
	fmt.Printf("workload %s: %s\n", def.name, def.why)
	fmt.Printf("  seed %d, scale %.4g, trace %v, cpus %d (parallelism fixed at %d), %s, closed loop\n",
		o.seed, c.scale, traced, runtime.NumCPU(), parallel, runtime.Version())
	res, plain, err := runPlain(def, c, setupReps, pins, os.Stdout)
	if err != nil {
		fatal(err)
	}
	// The end-to-end metrics always come from the untraced window; a traced
	// run prints them too and hands them to an all-workloads parent, so that
	// nobody has to measure the same untraced window twice.
	e2e, err := res.metrics.render(endToEnd)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  ops %d (%s), latency unit: %s (%d samples)\n", res.ops, def.opUnit, def.latUnit, res.latN)
	res.metrics.print(os.Stdout, endToEnd)
	fmt.Printf("  %-40s %16.6g ms (reported, not gated)\n", "lat_p90_ms", ms(percentile(sortedCopy(plain.win.lat), 0.90)))
	fmt.Printf("  %-40s %16.6g MiB (reported, not gated)\n", "peak_rss_mb", plain.peakRSS)
	rendered := e2e
	if traced {
		pr, err := sharedProbes(o.probes, c)
		if err != nil {
			fatal(fmt.Errorf("probes: %w", err))
		}
		if err := runTraced(def, c, res, plain, pr, os.Stdout); err != nil {
			fatal(err)
		}
		if rendered, err = res.metrics.render(perLayer); err != nil {
			fatal(err)
		}
		res.metrics.print(os.Stdout, perLayer)
	}
	if o.update {
		if err := updatePin(c, def.name, res.sim); err != nil {
			fatal(err)
		}
		fmt.Printf("  pinned %d simulated statistics in %s\n", len(res.sim), pinPath(c.dir, c.seed))
	}

	failRatio := float64(res.failed) / float64(res.attempted)
	pinned := "invariants only (no pin for this seed and scale)"
	if res.pinned {
		pinned = "against the pinned statistics"
	}
	fmt.Printf("  %-40s %16.6g ratio (%d of %d)\n", "fail_ratio", failRatio, res.failed, res.attempted)
	fmt.Printf("  %-40s %16d count, %s\n", "sim_drift", res.drift, pinned)
	for _, w := range res.why {
		fmt.Printf("    ! %s\n", w)
	}
	fmt.Printf("%s%s\n", extrasPrefix, mustJSON(extras{
		Workload: def.name, Seed: o.seed, Ops: res.ops, OpUnit: def.opUnit,
		SimDrift: res.drift, Pinned: res.pinned, LatN: res.latN, LatUnit: def.latUnit,
		EndToEnd: e2e,
	}))
	ok = res.failed == 0 && res.drift == 0
	fmt.Printf("%s\n", mustJSON(resultLine{
		Correct: ok, Attempted: res.attempted, Failed: res.failed, Metrics: rendered,
	}))
	return ok
}

// childRun is one workload's result as the parent read it back.
type childRun struct {
	Extras extras     `json:"run"`
	Result resultLine `json:"result"`
}

// report is the -o document of an all-workloads run.
type report struct {
	Command   string                 `json:"command"`
	GoVersion string                 `json:"go_version"`
	CPUs      int                    `json:"cpus"`
	Parallel  int                    `json:"parallelism"`
	Loop      string                 `json:"loop"`
	Seed      uint64                 `json:"seed"`
	Scale     float64                `json:"scale"`
	EndToEnd  map[string]childRun    `json:"end_to_end"`
	PerLayer  map[string]childRun    `json:"per_layer,omitempty"`
	Declared  map[string][]metricDef `json:"declared"`
}

func (r *report) healthy() bool {
	for _, set := range []map[string]childRun{r.EndToEnd, r.PerLayer} {
		for _, run := range set {
			if !run.Result.Correct || run.Result.Failed != 0 {
				return false
			}
		}
	}
	return true
}

func mustIndent(v any) []byte {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		panic(fmt.Sprintf("bench: marshal: %v", err))
	}
	return b
}

// allWorkloads runs each named workload in a child process of its own (so
// the RSS high-water mark and the heap are per workload). With -trace 1 the
// layer probes, which do not depend on the workload, run once, in the first
// child (see sharedProbes), and each child reports both metric sets from its
// one untraced and one traced window.
func allWorkloads(o options, c config, log io.Writer, order []string) (*report, error) {
	rep := &report{
		Command: "go run ./bench", GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
		Parallel: parallel, Loop: "closed, 2 clients", Seed: o.seed, Scale: o.scale,
		EndToEnd: map[string]childRun{},
		Declared: map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer},
	}
	if o.trace != 0 {
		rep.PerLayer = map[string]childRun{}
		o.probes = filepath.Join(c.dir, "out", fmt.Sprintf("probes-%d.json", os.Getpid()))
		defer os.Remove(o.probes)
	}
	for _, name := range order {
		run, err := child(o, name, log)
		if err != nil {
			return nil, err
		}
		if o.trace != 0 {
			rep.PerLayer[name] = run
			run.Result.Metrics = run.Extras.EndToEnd
		}
		run.Extras.EndToEnd = nil
		rep.EndToEnd[name] = run
	}
	return rep, nil
}

// child re-executes this binary for one workload and parses the two
// machine-readable lines at the end of its output. A child that reports
// failures still yields a result; one that dies without a result is an
// error.
func child(o options, name string, log io.Writer) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(o.seed), "-scale", fmt.Sprint(o.scale), "-trace", fmt.Sprint(o.trace),
	}
	if o.probes != "" {
		args = append(args, "-probes", o.probes)
	}
	if o.update {
		args = append(args, "-update-fingerprint")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()

	var run childRun
	var lastLine string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, extrasPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &run.Extras); err != nil {
				return childRun{}, fmt.Errorf("%s: bad extras line: %w", name, err)
			}
			continue
		}
		if lastLine != "" {
			fmt.Fprintln(log, lastLine)
		}
		lastLine = line
	}
	if err := json.Unmarshal([]byte(lastLine), &run.Result); err != nil || run.Result.Metrics == nil {
		fmt.Fprintln(log, lastLine)
		return childRun{}, fmt.Errorf("%s: child printed no result (%v)", name, runErr)
	}
	return run, nil
}

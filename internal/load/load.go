// Package load is the deterministic load-test harness for the serving
// daemon (dsmsimctl serve): it generates request schedules from a seeded splitmix
// stream, drives them against a live daemon over HTTP (open-loop at a
// target RPS or closed-loop with N concurrent clients), records
// per-request latencies into streaming histograms (sim.Histogram), and
// cross-checks its client-side counters against the server's own
// /v1/stats counters and /v1/metrics CSV.
//
// Determinism contract: the request schedule — arrival offsets, request
// kinds, and the Zipf-popular point each request targets — is a pure
// function of (seed, mix, request count, universe, exponent). Against a
// warm daemon (every universe point already cached) the client-side
// counters are identical across runs: every point resolves as a cache
// hit, so nothing depends on scheduling races. Latencies are wall-clock
// and of course vary; everything counted does not.
//
// The package also hosts the LRU cache-sizing study (CacheStudy): capacity
// vs hit rate under Zipfian point popularity, the serving-stack analogue
// of the paper's invalidation fan-out question — how does a shared cache
// layer behave as request skew grows.
package load

//simcheck:allow-file determinism,nogoroutine -- the load harness measures wall-clock latency and drives concurrent HTTP clients by design; all randomness still flows through internal/sim's seeded RNG

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies one generated request.
type Kind int

const (
	// KindRun submits a one-point job with ?wait=1 and blocks for the
	// result.
	KindRun Kind = iota
	// KindAsync submits a one-point job without waiting; the runner awaits
	// all async jobs after the schedule finishes (unless disabled) so their
	// serving sources still count.
	KindAsync
	// KindExperiment runs a whole named paper experiment through
	// /v1/experiments.
	KindExperiment
	// KindResult fetches a universe point's result by fingerprint.
	KindResult
	// KindStats polls /v1/stats.
	KindStats

	numKinds = int(KindStats) + 1
)

var kindNames = [numKinds]string{"run", "async", "experiment", "result", "stats"}

// String returns the kind's mix name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Mix weights the request kinds of a schedule. Weights are relative
// integers; a zero weight disables the kind.
type Mix struct {
	Run        int
	Async      int
	Experiment int
	Result     int
	Stats      int
}

// DefaultMix is a realistic serving blend: mostly synchronous submits,
// some async submits and result fetches, an occasional stats poll.
func DefaultMix() Mix { return Mix{Run: 6, Async: 1, Experiment: 0, Result: 2, Stats: 1} }

// weights returns the mix as a kind-indexed array.
func (m Mix) weights() [numKinds]int {
	return [numKinds]int{m.Run, m.Async, m.Experiment, m.Result, m.Stats}
}

// Total returns the sum of the weights.
func (m Mix) Total() int {
	t := 0
	for _, w := range m.weights() {
		t += w
	}
	return t
}

// String renders the mix in ParseMix form, zero weights omitted.
func (m Mix) String() string {
	w := m.weights()
	parts := make([]string, 0, numKinds)
	for k := 0; k < numKinds; k++ {
		if w[k] != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", Kind(k), w[k]))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// ParseMix parses "run=6,async=1,result=2,stats=1" into a Mix. Unknown
// kinds and negative weights are errors; at least one weight must be
// positive.
func ParseMix(s string) (Mix, error) {
	var w [numKinds]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("load: mix entry %q is not name=weight", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return Mix{}, fmt.Errorf("load: mix weight %q must be a non-negative integer", part)
		}
		found := false
		for k := 0; k < numKinds; k++ {
			if kindNames[k] == name {
				w[k] = n
				found = true
				break
			}
		}
		if !found {
			return Mix{}, fmt.Errorf("load: unknown request kind %q (want one of %s)", name, strings.Join(kindNames[:], ", "))
		}
	}
	m := Mix{Run: w[KindRun], Async: w[KindAsync], Experiment: w[KindExperiment], Result: w[KindResult], Stats: w[KindStats]}
	if m.Total() <= 0 {
		return Mix{}, fmt.Errorf("load: mix %q has no positive weight", s)
	}
	return m, nil
}

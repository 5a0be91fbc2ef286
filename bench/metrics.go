package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported number. The end-to-end table below is the
// harness's full list; BENCHMARK.json carries the subset its contract allows
// (see README.md "What BENCHMARK.json leaves out").
type metricDef struct {
	name, unit string
	higher     bool // better direction
	// bound is the share of the reference median a metric may worsen by
	// before -compare calls it worse; 0 with exact set means the two medians
	// must agree to 1e-9 relative.
	bound float64
	exact bool
	// exactSameInputs makes -compare hold the metric to exact agreement when
	// both files served the same seed and fixed counts: the value is then a
	// pure function of the inputs.
	exactSameInputs bool
	// only restricts the metric to one workload ("" = all).
	only string
	// driver marks the metrics printed by a --workload run with --trace 0:
	// defined on every workload and never zero.
	driver bool
}

// endToEnd is what a caller of the optimizer sees. Bounds are set from the
// measured spread over ten seeds on the 2-vCPU reference box (README.md,
// "Measured spread"): at least three times the widest quartile distance seen
// on any workload, so the timing bounds are wider than the issue proposed
// (qps and p50 7%, p99 15%, allocs 2%) — fleet and loop set them, not
// recurring.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, driver: true},
	{name: "qps", unit: "req/s", higher: true, bound: 0.15, driver: true},
	{name: "lat_p50_us", unit: "us", bound: 0.15, driver: true},
	{name: "lat_p99_us", unit: "us", bound: 0.25, driver: true},
	{name: "allocs_per_op", unit: "allocs/req", bound: 0.04, driver: true},
	{name: "live_heap_mb", unit: "MiB", bound: 0.1, driver: true},
	{name: "learned_ratio", unit: "ratio", higher: true, bound: 0.03, exactSameInputs: true, driver: true},
	{name: "fail_ratio", unit: "ratio", exact: true},
	{name: "retrain_stall_ms", unit: "ms", bound: 0.15, only: "loop"},
	{name: "exec_cpu_cost_mean", unit: "cpu", exact: true, only: "loop"},
}

// exactCounts must agree exactly between two fixed-count runs of one commit
// and seed; -compare reports them beside the digest.
var exactCounts = []string{
	"requests", "lifecycle.retrains", "lifecycle.promotes", "lifecycle.rollbacks",
	"lifecycle.rejected", "durable.journal_appends", "durable.checkpoints",
	"exec.executions", "feedback.harvested",
}

// layerDef is one per-layer metric of the traced run; moves names the
// end-to-end metric it should move and on which workload.
type layerDef struct {
	name, unit string
	higher     bool
	moves      string
}

// perLayer is printed, in this order, by every traced run; a metric whose
// layer the workload does not exercise reads 0.
var perLayer = []layerDef{
	{"explorer.candidates_us", "us", false, "qps, lat_p50_us on recurring (~75-95%) and dayroll (~70%)"},
	{"explorer.share", "ratio", false, "qps on recurring, dayroll"},
	{"explorer.allocs_per_call", "allocs", false, "allocs_per_op on all"},
	{"explorer.cands_per_req", "count", false, "wasted planning -> qps on recurring, dayroll"},
	{"explorer.kept_ratio", "ratio", true, "wasted planning -> qps on recurring, dayroll"},
	{"nativeopt.optimize_us", "us", false, "explorer.candidates_us on all"},
	{"nativeopt.optimize_allocs", "allocs", false, "explorer.allocs_per_call on all"},
	{"nativeopt.roughcost_us", "us", false, "guard.rough_us, explorer.candidates_us on all"},
	{"cluster.env_us", "us", false, "lat_p50_us (small, fixed) on all"},
	{"predictor.envsource_us", "us", false, "lat_p50_us (small, fixed) on all"},
	{"predictor.select_us", "us", false, "qps, lat_p50_us on dayroll, fleet; ~0 on recurring"},
	{"predictor.share", "ratio", false, "qps on dayroll, fleet; <2% on recurring"},
	{"predictor.plans_scored_per_req", "count", false, "predictor.select_us on all"},
	{"predictor.cache_hit_ratio", "ratio", true, "qps: ~1 on recurring, low on dayroll, between on fleet"},
	{"predictor.cache_evictions_per_req", "count", false, "qps on dayroll, fleet"},
	{"predictor.predictcost_us", "us", false, "predictor.select_us on dayroll"},
	{"encoding.encode_tree_us", "us", false, "predictor.select_us on dayroll"},
	{"encoding.nodes_per_plan", "count", false, "encoding.encode_tree_us on dayroll"},
	{"nn.calib_matmul_ns", "ns", false, "machine-speed reference for predictor.*"},
	{"guard.serve_us", "us", false, "qps on recurring once exploration shrinks (~5% today)"},
	{"guard.self_us", "us", false, "qps on recurring"},
	{"guard.rough_us", "us", false, "qps on recurring"},
	{"guard.rough_calls_per_req", "count", false, "guard.rough_us on recurring"},
	{"guard.fallback_ratio", "ratio", false, "learned_ratio on fleet, loop"},
	{"guard.shed_ratio", "ratio", false, "learned_ratio on fleet"},
	{"guard.sentinel_samples_per_req", "count", false, "guard.rough_us on all"},
	{"loam.assemble_us", "us", false, "validity of the budget (residual) on all"},
	{"loam.trace_coverage", "ratio", true, "validity of the budget on all; in [0.85,1.15] on recurring, dayroll"},
	{"loam.trace_overhead_ratio", "ratio", false, "validity of the budget on all"},
	{"fleet.route_self_us", "us", false, "qps on fleet; 0 elsewhere"},
	{"fleet.admitted_ratio", "ratio", true, "learned_ratio on fleet"},
	{"fleet.shed_ratio", "ratio", false, "learned_ratio on fleet"},
	{"fleet.recurring_lane_ratio", "ratio", true, "learned_ratio on fleet"},
	{"fleet.rebalance_ms", "ms", false, "untimed control plane on fleet"},
	{"fleet.grant_changes", "count", false, "predictor.cache_evictions_per_req on fleet"},
	{"loam.execute_choice_us_p50", "us", false, "lat_p50_us, qps on loop"},
	{"loam.retrain_stall_ms", "ms", false, "lat_p99_us, qps on loop (end-to-end retrain_stall_ms)"},
	{"loam.exec_cpu_cost_mean", "cpu", false, "plan choice on loop (end-to-end exec_cpu_cost_mean)"},
	{"exec.executions", "count", false, "qps on loop"},
	{"feedback.harvested", "count", false, "qps on loop"},
	{"lifecycle.retrains", "count", false, "retrain_stall_ms, lat_p99_us on loop"},
	{"lifecycle.promotes", "count", false, "lat_p99_us on loop (fresh plan cache)"},
	{"lifecycle.rollbacks", "count", false, "learned_ratio on loop"},
	{"lifecycle.rejected", "count", false, "retrain_stall_ms on loop"},
	{"lifecycle.retrain_ms", "ms", false, "retrain_stall_ms on loop"},
	{"durable.journal_appends", "count", false, "qps, lat_p50_us on loop"},
	{"durable.checkpoints", "count", false, "retrain_stall_ms on loop"},
	{"atomicio.ops_per_req", "count", false, "lat_p50_us on loop"},
	{"durable.store_bytes", "bytes", false, "durable.restore_ms on loop"},
	{"durable.journal_append_us", "us", false, "lat_p50_us on loop"},
	{"durable.restore_ms", "ms", false, "recovery time on loop"},
	{"runtime.bytes_per_op", "bytes", false, "allocs_per_op, lat_p99_us on all"},
	{"runtime.gc_cycles", "count", false, "lat_p99_us on all"},
	{"runtime.gc_pause_ms", "ms", false, "lat_p99_us on all"},
	{"runtime.machine_speed", "ratio", true, "the box, not the program: 1.0 = quiet reference box; timing metrics are normalized by it"},
	{"setup.history_s", "s", false, "setup_s on all"},
	{"setup.views_s", "s", false, "setup_s on dayroll, loop"},
	{"setup.train_s", "s", false, "setup_s on all"},
	{"predictor.train_samples", "count", false, "setup.train_s on all"},
}

// tailLadder are the percentiles a latency tail may be reported at.
var tailLadder = []float64{50, 90, 95, 99}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it, so the reported tail is never one or two
// outliers. Every full-size run has ≥5k samples and reports p99.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quartiles returns the first quartile, median and third quartile of vs by
// the same exclusive method as Python's statistics.quantiles(vs, n=4), the
// rule the benchmark's acceptance spread is defined with.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// meanMicros returns the arithmetic mean of ds in microseconds.
func meanMicros(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e3
}

// FNV-64a, folded by hand so a digest can absorb fixed-width words without
// allocating.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime64
		w >>= 8
	}
	return h
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/walltime"
)

// PerfResult measures the serving fast path on one trained deployment: the
// allocation-free PredictCost forward, recurring-query SelectPlan throughput
// with the plan-embedding cache cold-bypassed vs warm, and end-to-end
// OptimizeBatch throughput at increasing parallelism. The struct is the
// machine-readable BENCH_serve.json payload (loam-bench -run perf -benchout).
// Timings and allocation counts are reporting-only measurements and are never
// part of the deterministic telemetry snapshot; Identical is the
// correctness bit — cached and uncached scoring must choose the same plans.
type PerfResult struct {
	Project string `json:"project"`
	Queries int    `json:"queries"`

	// CalibNs is the machine-speed calibration (CalibrateMachine): ns per
	// canonical blocked matmul on this machine, measured in the same process
	// as the numbers below. The -baseline trend gate divides it by the
	// committed baseline's calib_ns to scale thresholds to the measuring
	// machine instead of comparing raw wall times across hardware.
	CalibNs float64 `json:"calib_ns"`

	PredictCost PerfForward    `json:"predict_cost"`
	Select      PerfSelect     `json:"select"`
	Batch       []PerfBatchRow `json:"optimize_batch"`
}

// PerfForward is the PredictCost microbenchmark: one recurring plan scored
// repeatedly through the inference forward.
type PerfForward struct {
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// PerfSelect compares candidate-set scoring throughput on a recurring
// workload with the plan-embedding cache bypassed vs warm.
type PerfSelect struct {
	Rounds           int     `json:"rounds"`
	UncachedQPS      float64 `json:"uncached_qps"`
	WarmQPS          float64 `json:"warm_qps"`
	RecurringSpeedup float64 `json:"recurring_speedup"`
	// Identical is true when warm cached scoring chose exactly the plans
	// uncached scoring chose for every query.
	Identical bool `json:"identical"`
}

// PerfBatchRow is one OptimizeBatch throughput measurement.
type PerfBatchRow struct {
	Parallelism int     `json:"parallelism"`
	Seconds     float64 `json:"seconds"`
	QPS         float64 `json:"qps"`
}

// PerfBaseline is the committed perf floor (BENCH_baseline.json): recorded
// f64 serving numbers plus the calib_ns of the machine that recorded them.
// The trend gate (loam-bench -run perf -baseline) scales its thresholds by
// the calib ratio of the two machines, clamped to [0.25, 4] so a pathological
// calibration can neither mask a real regression nor manufacture one.
type PerfBaseline struct {
	CalibNs        float64 `json:"calib_ns"`
	PredictNsPerOp float64 `json:"predict_ns_per_op"`
	WarmQPS        float64 `json:"warm_qps"`
}

// CalibrateMachine times the canonical calibration workload — a fixed-shape
// blocked f64 matmul on deterministic inputs — and returns ns per matmul
// (best of several reps, so a background-noise spike cannot inflate it).
func CalibrateMachine() float64 {
	const n, iters, reps = 96, 8, 5
	rng := simrand.New(7)
	a := make([]float64, n*n)
	bt := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Uniform(-1, 1)
		bt[i] = rng.Uniform(-1, 1)
	}
	dst := make([]float64, n*n)
	best := 0.0
	for rep := 0; rep < reps; rep++ {
		sw := walltime.Start()
		for it := 0; it < iters; it++ {
			nn.MatMulNTBlockedInto(dst, a, bt, n, n, n)
		}
		if ns := sw.Seconds() * 1e9 / iters; rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// CompareBaseline checks r against the committed baseline and returns the
// list of regressions (empty = gate passes). Thresholds are scaled by the
// calib ratio (this machine over the baseline machine, clamped): throughput
// must stay above 90% of the scaled baseline, PredictCost latency below 110%,
// and the identical-choices bit must hold.
func (r *PerfResult) CompareBaseline(b *PerfBaseline) []string {
	scale := 1.0
	if b.CalibNs > 0 && r.CalibNs > 0 {
		scale = r.CalibNs / b.CalibNs
		if scale < 0.25 {
			scale = 0.25
		} else if scale > 4 {
			scale = 4
		}
	}
	var bad []string
	if lim := 1.1 * b.PredictNsPerOp * scale; r.PredictCost.NsPerOp > lim {
		bad = append(bad, fmt.Sprintf("PredictCost %.0f ns/op exceeds scaled baseline limit %.0f ns/op",
			r.PredictCost.NsPerOp, lim))
	}
	if lim := 0.9 * b.WarmQPS / scale; r.Select.WarmQPS < lim {
		bad = append(bad, fmt.Sprintf("warm select %.0f q/s below scaled baseline floor %.0f q/s",
			r.Select.WarmQPS, lim))
	}
	if !r.Select.Identical {
		bad = append(bad, "warm cached scoring chose different plans than uncached scoring")
	}
	return bad
}

// BaselineSpeedup reports this run's warm-cache throughput relative to the
// committed baseline, in baseline-machine units (scaled by the calib ratio).
func (r *PerfResult) BaselineSpeedup(b *PerfBaseline) float64 {
	if b.WarmQPS <= 0 {
		return 0
	}
	scale := 1.0
	if b.CalibNs > 0 && r.CalibNs > 0 {
		scale = r.CalibNs / b.CalibNs
		if scale < 0.25 {
			scale = 0.25
		} else if scale > 4 {
			scale = 4
		}
	}
	return r.Select.WarmQPS * scale / b.WarmQPS
}

// perfMeasure times n runs of f and reports ns/op plus heap allocations/op
// (malloc-count delta around the loop, GC-settled first).
func perfMeasure(n int, f func()) (nsPerOp, allocsPerOp float64) {
	f() // warm pools, caches and scratch slabs
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sw := walltime.Start()
	for i := 0; i < n; i++ {
		f()
	}
	secs := sw.Seconds()
	runtime.ReadMemStats(&m1)
	return secs * 1e9 / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// Perf runs the serving fast-path benchmark on the first evaluation project.
// ctx bounds the end-to-end OptimizeBatch phase: cancellation propagates into
// the deployment's serving path.
func (e *Env) Perf(ctx context.Context) (*PerfResult, error) {
	project := e.projects[0].Config.Name
	dep, err := e.Deployment(project, LOAMVariant())
	if err != nil {
		return nil, err
	}
	ps := e.Project(project)

	var qs []*query.Query
	for day := e.Cfg.TrainDays; day < e.Cfg.TrainDays+e.Cfg.TestDays; day++ {
		qs = append(qs, ps.Gen.Day(day)...)
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("perf %s: no test-window queries", project)
	}
	cands := make([][]*plan.Plan, len(qs))
	for i, q := range qs {
		cands[i] = ps.Explorer(q.Day).Candidates(q)
	}
	// The deployment's default strategy is MeanEnv, whose source and key are
	// environment-reading-independent, so one resolved pair serves the whole
	// benchmark and every round sees identical inputs.
	envs := dep.Predictor().EnvSourceFor(predictor.StrategyMeanEnv, [4]float64{}, [4]float64{})
	key := dep.Predictor().EnvKeyFor(predictor.StrategyMeanEnv, [4]float64{}, [4]float64{})

	res := &PerfResult{Project: project, Queries: len(qs), CalibNs: CalibrateMachine()}
	e.Cfg.logf("perf %s: machine calibration %.0f ns/matmul", project, res.CalibNs)

	// 1. PredictCost microbenchmark on one recurring plan.
	const fwdIters = 1000
	pl := cands[0][0]
	ns, allocs := perfMeasure(fwdIters, func() { dep.Predictor().PredictCost(pl, envs) })
	res.PredictCost = PerfForward{Iters: fwdIters, NsPerOp: ns, AllocsPerOp: allocs}
	e.Cfg.logf("perf %s: PredictCost %.0f ns/op, %.1f allocs/op", project, ns, allocs)

	// 2. Recurring-query SelectPlan throughput: every round re-scores the
	// same candidate sets, as a frontend serving a recurring workload would.
	// Uncached rounds go through the unkeyed path (cache bypassed); warm
	// rounds use keyed scoring against the deployment's cache after one
	// warming pass. Choices must agree bit for bit.
	const rounds = 3
	res.Select.Rounds = rounds
	uncachedChoice := make([]*plan.Plan, len(qs))
	sw := walltime.Start()
	for r := 0; r < rounds; r++ {
		for i := range qs {
			chosen, _, err := dep.Guard().ScoreLearned(cands[i], envs)
			if err != nil {
				return nil, fmt.Errorf("perf %s (uncached): %w", project, err)
			}
			uncachedChoice[i] = chosen
		}
	}
	uncachedSecs := sw.Seconds()
	res.Select.UncachedQPS = float64(rounds*len(qs)) / uncachedSecs

	res.Select.Identical = true
	for i := range qs { // warming pass + correctness check
		chosen, _, err := dep.Guard().ScoreLearnedKeyed(cands[i], envs, key)
		if err != nil {
			return nil, fmt.Errorf("perf %s (warming): %w", project, err)
		}
		if chosen != uncachedChoice[i] {
			res.Select.Identical = false
		}
	}
	sw = walltime.Start()
	for r := 0; r < rounds; r++ {
		for i := range qs {
			chosen, _, err := dep.Guard().ScoreLearnedKeyed(cands[i], envs, key)
			if err != nil {
				return nil, fmt.Errorf("perf %s (warm): %w", project, err)
			}
			if chosen != uncachedChoice[i] {
				res.Select.Identical = false
			}
		}
	}
	warmSecs := sw.Seconds()
	res.Select.WarmQPS = float64(rounds*len(qs)) / warmSecs
	if warmSecs > 0 {
		res.Select.RecurringSpeedup = uncachedSecs / warmSecs
	}
	e.Cfg.logf("perf %s: select uncached %.0f q/s, warm %.0f q/s (%.1fx), identical=%v",
		project, res.Select.UncachedQPS, res.Select.WarmQPS, res.Select.RecurringSpeedup,
		res.Select.Identical)

	// 3. End-to-end OptimizeBatch throughput (explorer + guard + scoring)
	// at fixed parallelism levels, cache warm.
	for _, par := range []int{1, 2, 4} {
		sw := walltime.Start()
		if _, err := dep.OptimizeBatch(ctx, qs, par); err != nil {
			return nil, fmt.Errorf("perf %s (batch %d): %w", project, par, err)
		}
		secs := sw.Seconds()
		row := PerfBatchRow{Parallelism: par, Seconds: secs, QPS: float64(len(qs)) / secs}
		res.Batch = append(res.Batch, row)
		e.Cfg.logf("perf %s: batch parallelism=%d %.0f q/s", project, par, row.QPS)
	}
	return res, nil
}

// Render prints the fast-path benchmark tables.
func (r *PerfResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Serving fast path — %d recurring queries on %q (calib %.0f ns)\n",
		r.Queries, r.Project, r.CalibNs)
	fmt.Fprintf(w, "PredictCost: %.0f ns/op, %.1f allocs/op (%d iters)\n",
		r.PredictCost.NsPerOp, r.PredictCost.AllocsPerOp, r.PredictCost.Iters)
	fmt.Fprintf(w, "SelectPlan:  uncached %.0f q/s, warm cache %.0f q/s, speedup %.2fx, identical choices: %v\n",
		r.Select.UncachedQPS, r.Select.WarmQPS, r.Select.RecurringSpeedup, r.Select.Identical)
	fmt.Fprintf(w, "%-12s %10s %10s\n", "parallelism", "seconds", "queries/s")
	for _, row := range r.Batch {
		fmt.Fprintf(w, "%-12d %10.3f %10.0f\n", row.Parallelism, row.Seconds, row.QPS)
	}
}

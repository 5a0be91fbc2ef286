package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"loam/internal/atomicio"
	"loam/internal/durable"
	"loam/internal/encoding"
	"loam/internal/nativeopt"
	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/simrand"
	"loam/internal/walltime"
)

// traceShrink divides a traced run's unit count: the traced pass measures
// layers, not throughput, and shares its time with an untraced reference.
const traceShrink = 2

// runTraced builds the workload twice from the same seed. One build serves
// through the program's own entry points and gives the reference mean
// latency; the other replays the same request stream through the staged
// server, one span per layer call. The two are stepped unit by unit in turn,
// so the comparison does not depend on how the machine's speed drifts over
// the run. Over the units both completed, the staged replay must have chosen
// exactly the plans the program chose.
func runTraced(ctx context.Context, name string, o options) (*runResult, error) {
	tr := newTracer()
	var ss [2]*session
	for i, t := range []*tracer{nil, tr} {
		in, err := build(name, o.sz, o.seed, t, o.outDir)
		if err != nil {
			return nil, err
		}
		defer in.close()
		in.units = (in.units + traceShrink - 1) / traceShrink
		m := newMeter(in.expect)
		in.warm(ctx)
		tr.spans = tr.spans[:0] // the warm-up's spans are not part of the budget
		ss[i] = newSession(in, m, o.seconds/2)
	}
	measure(ctx, ss[0], ss[1])
	refM, in, m := ss[0].m, ss[1].in, ss[1].m

	m.problems = append(m.problems, refM.problems...)
	for u := 0; u < min(len(refM.units), len(m.units)); u++ {
		if got, want := m.units[u].digest, refM.units[u].digest; got != want {
			m.problemf("staged replay chose different plans than OptimizeCtx in unit %d (digest %016x, want %016x)", u, got, want)
			break
		}
	}
	pr, err := leafProbes(in, o)
	if err != nil {
		return nil, err
	}
	res := resultOf(name, o.seed, m)
	res.Traced = true
	res.Layer = layerMetrics(in, refM, m, tr.spans, pr)
	if err := writeFile(filepath.Join(o.outDir, "trace-"+name+".jsonl"), spanFile(tr.spans)); err != nil {
		return nil, err
	}
	return res, nil
}

// writeFile creates path's directory and writes data atomically.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicio.Default.WriteFile(path, data)
}

// layerMetrics turns a traced run into the per-layer numbers: span sums for
// the stages, telemetry counter deltas for the ratios, the runtime's own
// counters, and the leaf probes. Every perLayer name is present.
func layerMetrics(in *instance, ref, m *meter, spans []span, pr probes) map[string]float64 {
	st := stageStats(spans)
	n := float64(max(1, m.attempted()))
	totalLat := m.totalLatency()
	refMean := float64(ref.totalLatency()) / 1e3 / float64(max(1, ref.attempted()))
	perSpan := func(name spanName, ns int64) float64 { return ratio(float64(ns)/1e3, float64(st[name].count)) }
	perReq := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	share := func(name spanName) float64 { return ratio(float64(st[name].self), float64(totalLat)) }
	cnt := func(name string) float64 { return float64(m.count[name]) }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	var staged int64
	for name, s := range st {
		if !residualSpan[name] {
			staged += s.self
		}
	}
	cands, scored := m.cands, m.scored
	hits, misses := cnt("predictor.cache.hits"), cnt("predictor.cache.misses")
	serves, routes := cnt("guard.serve.total"), cnt("fleet.route.total")
	retrains := cnt("lifecycle.retrain.runs")
	execs := make([]float64, len(m.execs))
	for i, d := range m.execs {
		execs[i] = float64(d) / 1e3
	}
	sort.Float64s(execs)

	return map[string]float64{
		"explorer.candidates_us":   perSpan(spanExplorer, st[spanExplorer].dur),
		"explorer.share":           share(spanExplorer),
		"explorer.allocs_per_call": pr.explorerAllocs,
		"explorer.cands_per_req":   ratio(float64(cands), float64(st[spanExplorer].count)),
		"explorer.kept_ratio":      ratio(float64(cands), float64(st[spanExplorer].count*explorerInvocations)),

		"nativeopt.optimize_us":     pr.optimizeUS,
		"nativeopt.optimize_allocs": pr.optimizeAllocs,
		"nativeopt.roughcost_us":    pr.roughCostUS,

		"cluster.env_us":         perSpan(spanClusterEnv, st[spanClusterEnv].dur),
		"predictor.envsource_us": perSpan(spanEnvSource, st[spanEnvSource].dur),

		"predictor.select_us":               perReq(st[spanSelect].dur),
		"predictor.share":                   share(spanSelect),
		"predictor.plans_scored_per_req":    float64(scored) / n,
		"predictor.cache_hit_ratio":         ratio(hits, hits+misses),
		"predictor.cache_evictions_per_req": cnt("predictor.cache.evictions") / n,
		"predictor.predictcost_us":          pr.predictCostUS,
		"encoding.encode_tree_us":           pr.encodeTreeUS,
		"encoding.nodes_per_plan":           pr.nodesPerPlan,
		"nn.calib_matmul_ns":                pr.matmulNS,

		"guard.serve_us":                 perSpan(spanGuardServe, st[spanGuardServe].dur),
		"guard.self_us":                  perSpan(spanGuardServe, st[spanGuardServe].self),
		"guard.rough_us":                 perReq(st[spanRough].dur),
		"guard.rough_calls_per_req":      float64(st[spanRough].count) / n,
		"guard.fallback_ratio":           ratio(cnt("guard.fallback.native")+cnt("guard.fallback.default"), serves),
		"guard.shed_ratio":               ratio(cnt("guard.serve.shed"), serves),
		"guard.sentinel_samples_per_req": cnt("guard.sentinel.samples") / n,

		"loam.assemble_us":          perSpan(spanRequest, st[spanRequest].self),
		"loam.trace_coverage":       ratio(float64(staged)/1e3/n, refMean),
		"loam.trace_overhead_ratio": ratio(float64(totalLat)/1e3/n, refMean),

		"fleet.route_self_us":        perSpan(spanRouteSynthetic, st[spanRouteSynthetic].self),
		"fleet.admitted_ratio":       ratio(cnt("fleet.admission.admitted"), routes),
		"fleet.shed_ratio":           ratio(cnt("fleet.admission.shed"), routes),
		"fleet.recurring_lane_ratio": ratio(cnt("fleet.admission.lane.recurring"), routes),
		"fleet.rebalance_ms":         meanMicros(m.rebalances) / 1e3,
		"fleet.grant_changes":        cnt("fleet.cache.grant_changes"),

		"loam.execute_choice_us_p50": percentile(execs, 50),
		"loam.retrain_stall_ms":      meanMicros(m.stalls) / 1e3,
		"loam.exec_cpu_cost_mean":    ratio(m.execCost, float64(len(m.execs))),
		"exec.executions":            cnt("exec.executions"),
		"feedback.harvested":         cnt("lifecycle.feedback.harvested"),

		"lifecycle.retrains":   retrains,
		"lifecycle.promotes":   cnt("lifecycle.promote"),
		"lifecycle.rollbacks":  cnt("lifecycle.rollback"),
		"lifecycle.rejected":   cnt("lifecycle.retrain.rejected"),
		"lifecycle.retrain_ms": ratio(m.trainSeconds*1e3, retrains),

		"durable.journal_appends":   cnt("durable.journal.appends"),
		"durable.checkpoints":       cnt("durable.checkpoints"),
		"atomicio.ops_per_req":      float64(m.ioOps) / n,
		"durable.store_bytes":       float64(m.storeBytes),
		"durable.journal_append_us": pr.journalAppendUS,
		"durable.restore_ms":        ms(m.restore),

		"runtime.bytes_per_op":  float64(m.mem.bytes) / n,
		"runtime.gc_cycles":     float64(m.mem.gcCycles),
		"runtime.gc_pause_ms":   ms(m.mem.gcPause),
		"runtime.machine_speed": m.machineSpeed(),

		"setup.history_s": in.phases.history,
		"setup.views_s":   in.phases.views,
		"setup.train_s":   in.phases.train,
		// The counter's value before the timed units: what Deploy trained on,
		// without the loop's retrains.
		"predictor.train_samples": float64(in.reg.Counter("train.samples").Value()) - cnt("train.samples"),
	}
}

// ratio is a/b, 0 when the layer saw no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probes are the leaf measurements: one public function each, timed directly
// on plans sampled from the workload, outside any request.
type probes struct {
	optimizeUS, optimizeAllocs  float64
	explorerAllocs, roughCostUS float64
	predictCostUS, encodeTreeUS float64
	nodesPerPlan, matmulNS      float64
	journalAppendUS             float64
}

// probeReps repeats each leaf probe over its sample.
const probeReps = 3

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func leafProbes(in *instance, o options) (probes, error) {
	var pr probes
	qs := in.probeQueries[:min(len(in.probeQueries), o.sz.probeSamples)]
	ps, pred := in.dep.ProjectSim, in.dep.Predictor()
	calls := float64(probeReps * len(qs))

	// nativeopt.Optimize, as the explorer calls it for the default plan.
	a0 := mallocs()
	sw := walltime.Start()
	for r := 0; r < probeReps; r++ {
		for _, q := range qs {
			nativeopt.New(ps.View(q.Day)).Optimize(q, nativeopt.Flags{})
		}
	}
	pr.optimizeUS = sw.Seconds() * 1e6 / calls
	pr.optimizeAllocs = float64(mallocs()-a0) / calls

	// explorer.Candidates allocations; the candidate sets feed the probes
	// below.
	type cand struct {
		day int
		p   *plan.Plan
	}
	var cands []cand
	a0 = mallocs()
	for r := 0; r < probeReps; r++ {
		for _, q := range qs {
			for _, p := range ps.Explorer(q.Day).Candidates(q) {
				if r == 0 {
					cands = append(cands, cand{q.Day, p})
				}
			}
		}
	}
	pr.explorerAllocs = float64(mallocs()-a0) / calls
	if len(cands) == 0 {
		return pr, fmt.Errorf("leaf probes: workload %s yielded no candidate plans", in.name)
	}
	plans := float64(probeReps * len(cands))

	// RoughCost, as the guard's sentinel calls it.
	sw = walltime.Start()
	for r := 0; r < probeReps; r++ {
		for _, c := range cands {
			nativeopt.New(ps.View(c.day)).RoughCost(c.p)
		}
	}
	pr.roughCostUS = sw.Seconds() * 1e6 / plans

	cl := ps.Executor.Cluster
	envs := pred.EnvSourceFor(in.dep.Strategy, cl.HistoryAverage().Normalized(), cl.ClusterAverage().Normalized())
	sw = walltime.Start()
	for r := 0; r < probeReps; r++ {
		for _, c := range cands {
			pred.PredictCost(c.p, envs)
		}
	}
	pr.predictCostUS = sw.Seconds() * 1e6 / plans

	var ft encoding.FlatTree
	nodes := 0
	sw = walltime.Start()
	for r := 0; r < probeReps; r++ {
		for _, c := range cands {
			in.dep.Encoder.EncodeTreeFlatInto(&ft, c.p, envs)
			nodes += ft.Len()
		}
	}
	pr.encodeTreeUS = sw.Seconds() * 1e6 / plans
	pr.nodesPerPlan = float64(nodes) / plans

	pr.matmulNS = matmulProbe()
	if in.name == "loop" {
		var err error
		if pr.journalAppendUS, err = journalProbe(o.outDir); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// matmulProbe times a fixed 96³ NT matmul, the kernel under every cost-head
// and backbone layer: a machine-speed reference for the predictor.* numbers.
func matmulProbe() float64 {
	const n, iters, reps = 96, 8, 5
	rng := simrand.New(7)
	a, bt, dst := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], bt[i] = rng.Uniform(-1, 1), rng.Uniform(-1, 1)
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		sw := walltime.Start()
		for i := 0; i < iters; i++ {
			nn.MatMulNTInto(dst, a, bt, n, n, n)
		}
		if ns := sw.Seconds() * 1e9 / iters; r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// journalProbe times fsynced appends of a feedback-sized record to a scratch
// journal beside the loop's store.
func journalProbe(base string) (us float64, err error) {
	dir, err := os.MkdirTemp(base, "journal-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := durable.Open(dir, atomicio.Default)
	if err != nil {
		return 0, err
	}
	j, err := store.Journal()
	if err != nil {
		return 0, err
	}
	const appends = 64
	payload := []byte(`{"p":12345.678901234,"a":23456.789012345}`)
	sw := walltime.Start()
	for i := 0; i < appends; i++ {
		if err := j.Append(payload); err != nil {
			return 0, err
		}
	}
	us = sw.Seconds() * 1e6 / appends
	return us, j.Close()
}

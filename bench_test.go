package loam_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"loam"
	"loam/internal/encoding"
	"loam/internal/exec"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/stats"
	"loam/internal/theory"
	"loam/internal/xgb"
)

// --- Micro-benchmarks of the core building blocks ---

func microProject(b testing.TB) (*loam.ProjectSim, *loam.Simulation) {
	b.Helper()
	sim := loam.NewSimulation(99, loam.DefaultSimulationConfig())
	cfg := loam.DefaultProjectConfig("micro")
	cfg.Archetype.NumTables = 20
	cfg.Workload.NumTemplates = 8
	return sim.AddProject(cfg), sim
}

func BenchmarkNativeOptimize(b *testing.B) {
	ps, _ := microProject(b)
	q := ps.Gen.Templates[0].Instantiate(ps.Rng("bench"), 1)
	ex := ps.Explorer(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ex.DefaultPlan(q)
	}
}

// TestExplorerCandidatesAllocCeiling pins the allocation drop of planning a
// request through one session (2,693 allocs/call when every setting planned
// and estimated on its own; 578 through one session that planned all ten and
// built each plan's scans anew; 405 with scans shared and inert settings
// skipped, every node, child slice and key slice allocated on its own; 120
// since plannings built in the session's scratch and only kept plans were
// copied out, two nodes to an allocation, with key slices resolved once per
// session; 84 once the steering memo replayed every call after the second;
// 70 since each planning builds straight into its plan's own storage, two
// nodes to an allocation with their child arrays inline — the ceiling is 10%
// above): what remains is the plans themselves and the session's per-request
// tables.
func TestExplorerCandidatesAllocCeiling(t *testing.T) {
	ps, _ := microProject(t)
	q := ps.Gen.Templates[0].Instantiate(ps.Rng("bench"), 1)
	ex := ps.Explorer(1)
	const ceiling = 77
	allocs := testing.AllocsPerRun(20, func() { _ = ex.Candidates(q) })
	t.Logf("Explorer.Candidates: %.0f allocs/call, ceiling %d", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("Explorer.Candidates: %.0f allocs/call, ceiling %d", allocs, ceiling)
	}
}

// project1Plans builds a project1-shaped project — the shape
// BenchmarkExplorerCandidates explores: 60 tables × 14 columns, mostly fresh
// statistics, 40 templates of 2–5 tables — on the default 256-machine cluster
// and returns each template's default plan with its execution options.
func project1Plans(b testing.TB) (*loam.ProjectSim, []*plan.Plan, []exec.Options) {
	b.Helper()
	sim := loam.NewSimulation(99, loam.DefaultSimulationConfig())
	cfg := loam.DefaultProjectConfig("project1")
	cfg.Archetype.NumTables, cfg.Archetype.ColumnsPerTable, cfg.Archetype.RowsLog10Mean = 60, 14, 4.7
	cfg.Workload.NumTemplates, cfg.Workload.MinTables, cfg.Workload.MaxTables = 40, 2, 5
	cfg.Workload.PushDifficultProb = 0.25
	cfg.StatsPolicy = stats.Policy{ColumnStatsProb: 0.85, FreshProb: 0.85, MaxStalenessDays: 10, NDVNoise: 0.2}
	ps := sim.AddProject(cfg)
	var plans []*plan.Plan
	var opts []exec.Options
	ex := ps.Explorer(1)
	for _, tpl := range ps.Gen.Templates {
		q := tpl.Instantiate(ps.Rng("bench"), 1)
		plans = append(plans, ex.DefaultPlan(q))
		opts = append(opts, ps.ExecOptions(q))
	}
	return ps, plans, opts
}

// BenchmarkExecutorExecute is the executor in seconds: one op is one Execute,
// cycling through the default plans of a project1-shaped project. Each stage
// is one Cluster.Allocate, two Averages, an AddLoad and an Advance; stages/op
// says how many an op paid for. To see where the time goes, add -cpuprofile
// and read `go tool pprof -top -cum` (.claude/skills/verify/SKILL.md).
func BenchmarkExecutorExecute(b *testing.B) {
	ps, plans, opts := project1Plans(b)
	stages := 0
	for i, p := range plans {
		stages += len(ps.Executor.Execute(p, 1, opts[i]).StageCosts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ps.Executor.Execute(plans[i%len(plans)], 1, opts[i%len(plans)])
	}
	b.ReportMetric(float64(stages)/float64(len(plans)), "stages/op")
}

// TestExecutorExecuteAllocCeiling pins what stage placement stopped
// allocating: Allocate used to build and sort a 256-entry candidate slice per
// stage (59 allocs and 17.1 KB per Execute on this project's 3.45 stages); it
// now returns the one id slice (45 and 2.7 KB; the ceiling is 10% above).
func TestExecutorExecuteAllocCeiling(t *testing.T) {
	ps, plans, opts := project1Plans(t)
	const ceiling = 50
	i := 0
	allocs := testing.AllocsPerRun(2*len(plans), func() {
		_ = ps.Executor.Execute(plans[i%len(plans)], 1, opts[i%len(plans)])
		i++
	})
	if allocs > ceiling {
		t.Fatalf("Executor.Execute: %.0f allocs/call, ceiling %d", allocs, ceiling)
	}
}

// trainTCNProject is the micro project three days in, with the deploy
// configuration BenchmarkPredictorTrainTCN trains: two epochs over its
// history, eight domain plans.
func trainTCNProject(b testing.TB) (*loam.ProjectSim, loam.DeployConfig) {
	ps, _ := microProject(b)
	ps.RunDays(0, 3)
	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = 3
	dcfg.TestDays = 0
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	return ps, dcfg
}

// BenchmarkPredictorTrainTCN is one Deploy of the micro project, nearly all
// of it training the TCN; make train runs it after the tests that pin the
// training path.
func BenchmarkPredictorTrainTCN(b *testing.B) {
	ps, dcfg := trainTCNProject(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Deploy(dcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTrainTCNAllocCeiling pins what training a minibatch as one forest
// stopped allocating: the per-plan autograd graphs took 84,022 allocs (286 MB)
// per Deploy of BenchmarkPredictorTrainTCN's project; the forest path, whose
// buffers one trainLoop call reuses, takes about 4,100 (11 MB), what remains
// being the heads' per-minibatch graph and the rest of Deploy. The ceiling
// is 25% above.
func TestTrainTCNAllocCeiling(t *testing.T) {
	ps, dcfg := trainTCNProject(t)
	const ceiling = 5100
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := ps.Deploy(dcfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("Deploy: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}

func BenchmarkPredictorInference(b *testing.B) {
	ps, _ := microProject(b)
	ps.RunDays(0, 3)
	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = 3
	dcfg.TestDays = 0
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	q := ps.Gen.Templates[0].Instantiate(ps.Rng("bench"), 3)
	cands := ps.Explorer(3).Candidates(q)
	envs := dep.Predictor().EnvSourceFor(predictor.StrategyMeanEnv, [4]float64{}, [4]float64{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = dep.Predictor().SelectPlanKeyed(cands, envs, encoding.EnvKey{})
	}
}

// BenchmarkSelectPlanColdExplorerSet is the cold path in seconds: one op is
// one unkeyed SelectPlanKeyed — no plan cache, so every candidate is encoded —
// over the real Explorer.Candidates set of one request of the default project,
// cycling through a day's requests. /first empties the TCN's plan memo before
// every op, so each op runs the forest forward and stores its plans; /memo
// keeps it, so after the first pass over the day the memo answers every
// plan, as it answers almost every dayroll plan. memo-share is the share of
// the plans scored, over every op's pass, that the memo answered. It owns
// the sharing ratios the forest forward rests on, per plan node of a
// request's candidates (nodes/op): conv-rows/node, the rows its TreeConv
// layers convolve on a miss — one per layer class (layerClasses) — and
// encoded/node, the nodes it encodes, a pointer the set already holds being
// listed instead.
func BenchmarkSelectPlanColdExplorerSet(b *testing.B) {
	sim := loam.NewSimulation(99, loam.DefaultSimulationConfig())
	ps := sim.AddProject(loam.DefaultProjectConfig("cold"))
	ps.RunDays(0, 3)
	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = 3
	dcfg.TestDays = 0
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	pred := dep.Predictor()
	envs := pred.EnvSourceFor(predictor.StrategyMeanEnv, [4]float64{}, [4]float64{})
	var sets [][]*plan.Plan
	var forest encoding.Forest
	nodes, encoded, convRows := 0, 0, 0
	ex := ps.Explorer(3)
	for _, q := range ps.Gen.Day(3) {
		cands := ex.Candidates(q)
		sets = append(sets, cands)
		dep.Encoder.EncodeForestInto(&forest, cands, envs)
		for k := range cands {
			nodes += len(forest.PlanNodes(k))
		}
		encoded += len(forest.Row)
		convRows += layerClasses(&forest, dcfg.Predictor.Layers)
	}
	for _, first := range []bool{true, false} {
		name := "memo"
		if first {
			name = "first"
		}
		b.Run(name, func(b *testing.B) {
			pred.ResetPlanMemo()
			scored, answered := pred.PlanMemoStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if first {
					pred.ResetPlanMemo()
				}
				if _, _, err := pred.SelectPlanKeyed(sets[i%len(sets)], envs, encoding.EnvKey{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s2, a2 := pred.PlanMemoStats()
			if s2-scored < int64(b.N) {
				b.Fatalf("%d ops looked %d plans up in the plan memo", b.N, s2-scored)
			}
			b.ReportMetric(float64(a2-answered)/float64(s2-scored), "memo-share")
			b.ReportMetric(float64(convRows)/float64(nodes), "conv-rows/node")
			b.ReportMetric(float64(encoded)/float64(nodes), "encoded/node")
			b.ReportMetric(float64(nodes)/float64(len(sets)), "nodes/op")
		})
	}
}

// layerClasses counts the rows a forward over f convolves in its first
// layers TreeConv layers: at each, one per distinct (self, left, right)
// triple of the entries' classes one layer down, the feature rows at layer 0.
// It is a census by map, independent of the predictor's class table.
func layerClasses(f *encoding.Forest, layers int) int {
	of, total := append([]int(nil), f.Row...), 0
	for range layers {
		ids := map[[3]int]int{}
		next := make([]int, len(of))
		for e, s := range of {
			key := [3]int{s, -1, -1}
			if l := f.Left[e]; l >= 0 {
				key[1] = of[l]
			}
			if r := f.Right[e]; r >= 0 {
				key[2] = of[r]
			}
			id, ok := ids[key]
			if !ok {
				id = len(ids)
				ids[key] = id
			}
			next[e] = id
		}
		of, total = next, total+len(ids)
	}
	return total
}

// serveBenchSetup builds a deployment plus 64 fresh queries once, shared by
// the BenchmarkConcurrentOptimize sub-benchmarks.
var (
	serveBenchOnce sync.Once
	serveBenchDep  *loam.Deployment
	serveBenchQs   []*query.Query
)

func getServeBench(b *testing.B) (*loam.Deployment, []*query.Query) {
	b.Helper()
	serveBenchOnce.Do(func() {
		ps, _ := microProject(b)
		ps.RunDays(0, 4)
		dcfg := loam.DefaultDeployConfig()
		dcfg.TrainDays = 4
		dcfg.TestDays = 0
		dcfg.Predictor.Epochs = 2
		dcfg.DomainPlans = 8
		dep, err := ps.Deploy(dcfg)
		if err != nil {
			b.Fatal(err)
		}
		serveBenchDep = dep
		for day := 4; len(serveBenchQs) < 64; day++ {
			serveBenchQs = append(serveBenchQs, ps.Gen.Day(day)...)
		}
		serveBenchQs = serveBenchQs[:64]
	})
	if serveBenchDep == nil {
		b.Skip("serving benchmark setup failed")
	}
	return serveBenchDep, serveBenchQs
}

// BenchmarkConcurrentOptimize reports the latency of serving an identical
// 64-query set from an increasing number of concurrent OptimizeCtx callers.
func BenchmarkConcurrentOptimize(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("callers=%d", par), func(b *testing.B) {
			dep, qs := getServeBench(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := loam.OptimizeAll(context.Background(), dep, qs, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkXGBTrain(b *testing.B) {
	rng := simrand.New(5)
	x := make([][]float64, 500)
	y := make([]float64, 500)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = x[i][0]*2 - x[i][2]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xgb.Train(xgb.DefaultConfig(), x, y)
	}
}

func BenchmarkTheoryExpectedDeviance(b *testing.B) {
	dists := []theory.LogNormal{
		{Mu: 2, Sigma: 0.4}, {Mu: 2.2, Sigma: 0.3},
		{Mu: 1.9, Sigma: 0.6}, {Mu: 2.4, Sigma: 0.2}, {Mu: 2.1, Sigma: 0.5},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = theory.ExpectedDeviance(dists, 0)
	}
}

func BenchmarkPlanFingerprint(b *testing.B) {
	ps, _ := microProject(b)
	q := ps.Gen.Templates[0].Instantiate(ps.Rng("bench"), 1)
	p := ps.Explorer(1).DefaultPlan(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Root.Fingerprint()
	}
}

var sinkPlan *plan.Plan

func BenchmarkPlanClone(b *testing.B) {
	ps, _ := microProject(b)
	q := ps.Gen.Templates[0].Instantiate(ps.Rng("bench"), 1)
	p := ps.Explorer(1).DefaultPlan(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPlan = p.Clone()
	}
}

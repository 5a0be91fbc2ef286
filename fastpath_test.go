package loam

import (
	"bytes"
	"context"
	"math"
	"testing"

	"loam/internal/encoding"
	"loam/internal/explorer"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/query"
	"loam/internal/stats"
)

// TestForestScoringMatchesPerPlanOnExplorerSets: over the candidate sets the
// real explorers build — default and wide, on a well-statted few-join project
// and a poorly-statted many-join one — scoring a set as one forest gives,
// bit for bit, the cost of scoring each candidate alone (a forest of one
// shares nothing across plans; internal/predictor pins that to the training
// forward), unkeyed and through the plan cache cold and warm. It also holds
// the sets to the sharing the forest was built for.
func TestForestScoringMatchesPerPlanOnExplorerSets(t *testing.T) {
	for _, shape := range []struct {
		name       string
		seed       uint64
		tables     int
		pol        stats.Policy
		minT, maxT int
		pushHard   float64
	}{
		{"project1", 101, 60, stats.Policy{ColumnStatsProb: 0.85, FreshProb: 0.85, MaxStalenessDays: 10, NDVNoise: 0.2}, 2, 5, 0.25},
		{"project2", 202, 30, stats.Policy{ColumnStatsProb: 0.38, FreshProb: 0.30, MaxStalenessDays: 25, NDVNoise: 0.8}, 3, 6, 0.55},
	} {
		sim := NewSimulation(shape.seed, DefaultSimulationConfig())
		cfg := DefaultProjectConfig(shape.name)
		cfg.Archetype.NumTables = shape.tables
		cfg.StatsPolicy = shape.pol
		cfg.Workload.NumTemplates = 12
		cfg.Workload.QueriesPerDayMean = 3
		cfg.Workload.MinTables, cfg.Workload.MaxTables = shape.minT, shape.maxT
		cfg.Workload.PushDifficultProb = shape.pushHard
		ps := sim.AddProject(cfg)
		ps.RunDays(0, 4)
		dcfg := smallDeployConfig()
		dcfg.TrainDays, dcfg.TestDays = 4, 0
		dep, err := ps.Deploy(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		pred := dep.Predictor()
		envs := pred.EnvSourceFor(predictor.StrategyMeanEnv, [4]float64{}, [4]float64{})
		key := pred.EnvKeyFor(predictor.StrategyMeanEnv, [4]float64{}, [4]float64{})
		const day = 4
		var forest encoding.Forest
		for name, ex := range map[string]*explorer.Explorer{"default": ps.Explorer(day), "wide": explorer.NewWide(ps.View(day))} {
			nodes, distinct := 0, 0
			for _, q := range ps.Gen.Day(day) {
				cands := ex.Candidates(q)
				want := make([]float64, len(cands))
				for i, c := range cands {
					want[i] = pred.PredictCost(c, envs)
				}
				same := func(path string, score func() (*plan.Plan, []float64, error)) {
					t.Helper()
					_, costs, err := score()
					if err != nil {
						t.Fatalf("%s %s %s %s: %v", shape.name, name, q.ID, path, err)
					}
					for i := range want {
						if math.Float64bits(costs[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s %s %s %s: candidate %d of %d costs %v in the forest, %v alone",
								shape.name, name, q.ID, path, i, len(cands), costs[i], want[i])
						}
					}
				}
				keyed := func() (*plan.Plan, []float64, error) { return pred.SelectPlanKeyed(cands, envs, key) }
				same("unkeyed", func() (*plan.Plan, []float64, error) { return pred.SelectPlan(cands, envs) })
				pred.EnablePlanCache(256)
				same("keyed cold", keyed)
				same("keyed warm", keyed)
				dep.Encoder.EncodeForestInto(&forest, cands, envs)
				for k := range cands {
					nodes += len(forest.PlanRows(k))
				}
				distinct += forest.Len()
			}
			if nodes == 0 || float64(distinct) > 0.7*float64(nodes) {
				t.Fatalf("%s %s: %d distinct rows for %d nodes — the explorer's candidates no longer share what the forest forward is built on",
					shape.name, name, distinct, nodes)
			}
		}
	}
}

// TestConcurrentOptimizeCacheIdentical runs the same recurring queries
// sequentially and from 4 concurrent OptimizeCtx callers against one
// deployment with the default plan cache enabled: plan choices and cost estimates must be bit-identical,
// and the second pass must be served largely from the cache.
func TestConcurrentOptimizeCacheIdentical(t *testing.T) {
	dep, qs := serveDeployment(t, 41, 24)

	seq, err := OptimizeAll(context.Background(), dep, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := dep.Predictor().PlanCacheLen(); n == 0 {
		t.Fatal("default deployment served without populating the plan cache")
	}
	par, err := OptimizeAll(context.Background(), dep, qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if par[i].ChosenIdx != seq[i].ChosenIdx {
			t.Fatalf("query %d: parallel chose %d, sequential %d", i, par[i].ChosenIdx, seq[i].ChosenIdx)
		}
		if len(par[i].Estimates) != len(seq[i].Estimates) {
			t.Fatalf("query %d: estimate count differs", i)
		}
		for j := range seq[i].Estimates {
			if math.Float64bits(par[i].Estimates[j]) != math.Float64bits(seq[i].Estimates[j]) {
				t.Fatalf("query %d estimate %d differs between cached parallel and sequential", i, j)
			}
		}
	}
}

// TestConcurrentOptimizeCacheRace hammers one deployment's plan cache from 8
// concurrent OptimizeCtx callers over a recurring workload; under -race
// this is the serving-layer data-race test for the singleflight cache.
func TestConcurrentOptimizeCacheRace(t *testing.T) {
	dep, qs := serveDeployment(t, 42, 16)
	// Repeat the workload so most lookups hit the cache concurrently.
	batch := append(append(append([]*query.Query{}, qs...), qs...), qs...)
	for round := 0; round < 2; round++ {
		if _, err := OptimizeAll(context.Background(), dep, batch, 8); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanCacheInvalidatedOnRedeploy verifies the invalidation contract: a
// warmed cache never survives into a redeployed (restored or retrained)
// predictor, and the fresh deployment still chooses the same plans as the
// original model it was restored from.
func TestPlanCacheInvalidatedOnRedeploy(t *testing.T) {
	dep, qs := serveDeployment(t, 43, 8)
	first := make([]*Choice, len(qs))
	for i, q := range qs {
		c, err := dep.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = c
	}
	if dep.Predictor().PlanCacheLen() == 0 {
		t.Fatal("cache not warmed")
	}

	var buf bytes.Buffer
	if err := dep.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := dep.ProjectSim.DeployFromModel(&buf, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := restored.Predictor().PlanCacheLen(); n != 0 {
		t.Fatalf("restored deployment inherited %d cached embeddings", n)
	}
	for i, q := range qs {
		c, err := restored.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if c.ChosenIdx != first[i].ChosenIdx {
			t.Fatalf("query %d: restored model chose %d, original %d", i, c.ChosenIdx, first[i].ChosenIdx)
		}
	}

	// Disabling the cache must not change choices either.
	uncached, err := dep.ProjectSim.Deploy(smallDeployConfig(), WithPlanCache(0))
	if err != nil {
		t.Fatal(err)
	}
	if n := uncached.Predictor().PlanCacheLen(); n != 0 {
		t.Fatalf("WithPlanCache(0) deployment holds %d entries", n)
	}
	for _, q := range qs {
		if _, err := uncached.OptimizeCtx(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if n := uncached.Predictor().PlanCacheLen(); n != 0 {
		t.Fatalf("disabled cache accumulated %d entries", n)
	}
}

// smallDeployConfig mirrors serveDeployment's deploy configuration for tests
// that need a second deployment against the same project.
func smallDeployConfig() DeployConfig {
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 5
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	return dcfg
}

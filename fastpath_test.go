package loam

import (
	"bytes"
	"context"
	"math"
	"testing"

	"loam/internal/query"
)

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

package loam

import (
	"context"
	"testing"

	"loam/internal/predictor"
)

// TestSmokePipeline exercises the whole pipeline end to end at tiny scale:
// history building, training with domain adaptation, and steering.
func TestSmokePipeline(t *testing.T) {
	sim := NewSimulation(11, DefaultSimulationConfig())
	cfg := DefaultProjectConfig("smoke")
	cfg.Archetype.NumTables = 12
	cfg.Workload.NumTemplates = 8
	cfg.Workload.QueriesPerDayMean = 6
	ps := sim.AddProject(cfg)
	ps.RunDays(0, 8)

	if ps.Repo.Len() == 0 {
		t.Fatal("no history recorded")
	}
	t.Logf("history: %d records over %v days", ps.Repo.Len(), ps.Repo.Days())

	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 6
	dcfg.TestDays = 2
	dcfg.Predictor.Epochs = 3
	dcfg.DomainPlans = 16
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Logf("train=%d test=%d trainTime=%.2fs modelBytes=%d meanEnv=%v",
		dep.TrainSize, len(dep.TestSet), dep.Predictor().Metrics().TrainSeconds,
		dep.Predictor().Metrics().ModelBytes, dep.Predictor().TrainMeanEnv())

	if len(dep.TestSet) == 0 {
		t.Fatal("no test queries")
	}
	for _, e := range dep.TestSet[:min(3, len(dep.TestSet))] {
		choice, err := dep.OptimizeCtx(context.Background(), e.Query)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		if choice.Chosen == nil {
			t.Fatal("no plan chosen")
		}
		rec := dep.ExecuteChoice(choice)
		t.Logf("q=%s cands=%d chosen=%d est=%.0f actual=%.0f default-actual=%.0f",
			e.Query.ID, len(choice.Candidates), choice.ChosenIdx,
			choice.Estimates[choice.ChosenIdx], rec.CPUCost, e.Record.CPUCost)
	}

	if dep.Predictor().Metrics().FinalCostLoss <= 0 {
		t.Errorf("expected positive final cost loss, got %v", dep.Predictor().Metrics().FinalCostLoss)
	}
	_ = predictor.StrategyMeanEnv
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

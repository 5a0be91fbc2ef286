package loam

import (
	"context"
	"errors"
	"strings"
	"testing"

	"loam/internal/predictor"
	"loam/internal/selector"
)

func fleetSim(t *testing.T) *Simulation {
	t.Helper()
	sim := NewSimulation(51, DefaultSimulationConfig())
	for i, name := range []string{"fa", "fb", "fc"} {
		cfg := DefaultProjectConfig(name)
		cfg.Archetype.NumTables = 8 + i
		cfg.Workload.NumTemplates = 4
		cfg.Workload.QueriesPerDayMean = 4
		ps := sim.AddProject(cfg)
		ps.RunDays(0, 5)
	}
	// One project with no history at all.
	cfg := DefaultProjectConfig("empty")
	sim.AddProject(cfg)
	return sim
}

func fleetDeployConfig() DeployConfig {
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 4
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 4
	return dcfg
}

func TestDeployAllParallelMatchesSequential(t *testing.T) {
	for _, parallelism := range []int{1, 3} {
		sim := fleetSim(t)
		// The aggregate error (the history-less project) is checked per entry.
		results, _ := sim.DeployAllCtx(context.Background(), fleetDeployConfig(), WithParallelism(parallelism))
		if len(results) != 4 {
			t.Fatalf("results %d", len(results))
		}
		for i, r := range results {
			if r.Project != sim.Projects[i].Config.Name {
				t.Fatal("result order broken")
			}
			if r.Project == "empty" {
				if r.Err == nil {
					t.Fatal("empty project should fail")
				}
				continue
			}
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Project, r.Err)
			}
			if r.Deployment == nil || r.Deployment.TrainSize == 0 {
				t.Fatalf("%s: empty deployment", r.Project)
			}
		}
	}
}

// TestDeployAllErrorShape pins the failure message format: ProjectSim.Deploy
// already prefixes "deploy <name>:", and DeployAllCtx must not wrap it again.
func TestDeployAllErrorShape(t *testing.T) {
	sim := fleetSim(t)
	results, _ := sim.DeployAllCtx(context.Background(), fleetDeployConfig(), WithParallelism(2))
	var failed *FleetResult
	for i := range results {
		if results[i].Project == "empty" {
			failed = &results[i]
		}
	}
	if failed == nil || failed.Err == nil {
		t.Fatal("empty project should carry an error")
	}
	if !errors.Is(failed.Err, predictor.ErrNoTrainingData) {
		t.Fatalf("error chain lost: %v", failed.Err)
	}
	msg := failed.Err.Error()
	if !strings.HasPrefix(msg, "deploy empty:") {
		t.Fatalf("missing project prefix: %q", msg)
	}
	if strings.Count(msg, "deploy empty:") != 1 {
		t.Fatalf("double-wrapped project prefix: %q", msg)
	}
}

func TestSelectAndDeployTopN(t *testing.T) {
	sim := fleetSim(t)
	pass := func(ps *ProjectSim) bool { return ps.Repo.Len() > 0 }
	scores := map[string]float64{"fa": 0.1, "fb": 0.9, "fc": 0.5}
	results, err := sim.DeployAllCtx(context.Background(), fleetDeployConfig(),
		WithParallelism(2), WithSelector(pass, scores, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("deployed %d", len(results))
	}
	if results[0].Project != "fb" || results[1].Project != "fc" {
		t.Fatalf("wrong top-2: %v %v", results[0].Project, results[1].Project)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Project, r.Err)
		}
	}
}

// TestSelectAndDeployAbsentRanksLast pins the documented ordering for
// projects missing from the scores map: they rank below every scored
// survivor — including negatively-scored ones, which the scores-map zero
// value used to let them outrank.
func TestSelectAndDeployAbsentRanksLast(t *testing.T) {
	sim := fleetSim(t)
	pass := func(ps *ProjectSim) bool { return ps.Repo.Len() > 0 }
	// fb is unscored; fa and fc carry negative improvement estimates. The
	// top-2 must be the scored projects (best first), not the unscored one
	// tying at 0.0.
	scores := map[string]float64{"fa": -0.2, "fc": -0.7}
	results, err := sim.DeployAllCtx(context.Background(), fleetDeployConfig(), WithSelector(pass, scores, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("deployed %d", len(results))
	}
	if results[0].Project != "fa" || results[1].Project != "fc" {
		t.Fatalf("negatively-scored survivors outranked by an unscored project: %v, %v",
			results[0].Project, results[1].Project)
	}
	// With room for everyone, the unscored project still comes last.
	results, err = sim.DeployAllCtx(context.Background(), fleetDeployConfig(), WithSelector(pass, scores, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[2].Project != "fb" {
		t.Fatalf("unscored project should rank last, got %+v", resultNames(results))
	}
}

func resultNames(rs []FleetResult) []string {
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Project
	}
	return names
}

func TestSelectAndDeployFilterExcludes(t *testing.T) {
	sim := fleetSim(t)
	// A real App.-D.1 filter over the histories.
	fcfg := selector.ScaledFilterConfig(1)
	pass := func(ps *ProjectSim) bool {
		ok, _ := fcfg.Pass(selector.ComputeStats(ps.Repo.All(), ps.Project, 30))
		return ok
	}
	results, err := sim.DeployAllCtx(context.Background(), fleetDeployConfig(), WithSelector(pass, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Project == "empty" {
			t.Fatal("filter failed to exclude the empty project")
		}
	}
}

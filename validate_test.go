package loam

import (
	"context"
	"math"
	"testing"

	"loam/internal/exec"
)

func deployTiny(t *testing.T, seed uint64) *Deployment {
	t.Helper()
	sim := NewSimulation(seed, DefaultSimulationConfig())
	cfg := DefaultProjectConfig("val")
	cfg.Archetype.NumTables = 12
	cfg.Workload.NumTemplates = 6
	cfg.Workload.QueriesPerDayMean = 5
	ps := sim.AddProject(cfg)
	ps.RunDays(0, 8)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 6
	dcfg.TestDays = 2
	dcfg.Predictor.Epochs = 3
	dcfg.DomainPlans = 8
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestValidateProducesGateDecision(t *testing.T) {
	dep := deployTiny(t, 41)
	vcfg := DefaultValidationConfig()
	vcfg.SampleQueries = 6
	res, err := dep.Validate(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 || res.Queries > 6 {
		t.Fatalf("validated %d queries", res.Queries)
	}
	if res.NativeCost <= 0 || res.SelectedCost <= 0 {
		t.Fatalf("costs %g / %g", res.NativeCost, res.SelectedCost)
	}
	// The gate decision must be consistent with the threshold.
	wantAccept := res.SelectedCost <= res.NativeCost*1.05
	if res.Accepted != wantAccept {
		t.Fatalf("accepted=%v inconsistent with costs %g vs %g", res.Accepted, res.SelectedCost, res.NativeCost)
	}
	// Ranker samples carry bounded features.
	if len(res.RankerSamples) == 0 {
		t.Fatal("no ranker samples derived")
	}
	for _, s := range res.RankerSamples {
		if s.Improvement < 0 {
			t.Fatalf("negative improvement %g", s.Improvement)
		}
		for _, f := range s.Features {
			if f < 0 || f > 1 {
				t.Fatalf("feature %g out of range", f)
			}
		}
	}
	if res.ImprovementSpace < 0 {
		t.Fatal("negative improvement space")
	}
}

func TestValidateRejectsEmptyTestSet(t *testing.T) {
	dep := deployTiny(t, 42)
	dep.TestSet = nil
	if _, err := dep.Validate(DefaultValidationConfig()); err == nil {
		t.Fatal("expected error for empty test set")
	}
}

// TestValidateDoesNotLogToHistory: the gate flights on a fork, so it neither
// logs to the project history nor moves the serving transcript — after
// Validate, the next ExecuteChoice returns what a same-seed twin that never
// validated returns, bit for bit, on a cluster at the same time.
func TestValidateDoesNotLogToHistory(t *testing.T) {
	dep, twin := deployTiny(t, 43), deployTiny(t, 43)
	before := dep.ProjectSim.Repo.Len()
	vcfg := DefaultValidationConfig()
	vcfg.SampleQueries = 3
	if _, err := dep.Validate(vcfg); err != nil {
		t.Fatal(err)
	}
	if dep.ProjectSim.Repo.Len() != before {
		t.Fatal("validation polluted the project history")
	}
	var recs [2]*exec.Record
	for i, d := range []*Deployment{dep, twin} {
		c, err := d.OptimizeCtx(context.Background(), d.TestSet[0].Query)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = d.ExecuteChoice(c)
	}
	got, want := recs[0], recs[1]
	if math.Float64bits(got.CPUCost) != math.Float64bits(want.CPUCost) ||
		math.Float64bits(got.LatencySec) != math.Float64bits(want.LatencySec) {
		t.Fatalf("after Validate: cost %v latency %v; twin: cost %v latency %v",
			got.CPUCost, got.LatencySec, want.CPUCost, want.LatencySec)
	}
	if g, w := dep.ProjectSim.Executor.Cluster.Now(), twin.ProjectSim.Executor.Cluster.Now(); g != w {
		t.Fatalf("cluster clock %v after Validate, twin's %v", g, w)
	}
}

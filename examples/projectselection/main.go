// Project selection: run LOAM's two-stage selector (§6) over a fleet of
// heterogeneous projects — the rule-based Filter excludes projects with
// training challenges, the learned Ranker prioritizes the rest by estimated
// improvement space, and the top-N are picked for deployment.
package main

import (
	"fmt"

	"loam"
	"loam/internal/selector"
	"loam/internal/simrand"
	"loam/internal/stats"
	"loam/internal/warehouse"
	"loam/internal/workload"
)

func main() {
	sim := loam.NewSimulation(31, loam.DefaultSimulationConfig())
	rng := simrand.New(99)

	// A small fleet with varied volumes, churn and statistics quality.
	const fleetSize = 12
	var fleet []*loam.ProjectSim
	for i := 0; i < fleetSize; i++ {
		pr := rng.DeriveN("fleet", i)
		arch := warehouse.DefaultArchetype()
		arch.Name = fmt.Sprintf("proj%02d", i)
		arch.NumTables = 15 + pr.Intn(40)
		arch.TempTableFrac = pr.Uniform(0, 0.6)
		wl := workload.DefaultConfig()
		wl.NumTemplates = 4 + pr.Intn(6)
		wl.QueriesPerDayMean = pr.Uniform(1, 12)
		pol := stats.Policy{
			ColumnStatsProb:  pr.Uniform(0.1, 0.9),
			FreshProb:        pr.Uniform(0.2, 0.9),
			MaxStalenessDays: 20,
			NDVNoise:         pr.Uniform(0.2, 0.8),
		}
		ps := sim.AddProject(loam.ProjectConfig{Name: arch.Name, Archetype: arch, Workload: wl, StatsPolicy: pol})
		ps.RunDays(0, 6)
		fleet = append(fleet, ps)
	}

	// Stage 1 — rule-based Filter (App. D.1).
	fcfg := selector.ScaledFilterConfig(4)
	var passed []*loam.ProjectSim
	fmt.Println("stage 1 — rule-based filter:")
	for _, ps := range fleet {
		ws := selector.ComputeStats(ps.Repo.All(), ps.Project, 30)
		ok, failed := fcfg.Pass(ws)
		status := "PASS"
		if !ok {
			status = fmt.Sprintf("FAIL %v", failed)
		}
		fmt.Printf("  %-8s n_query=%5.1f inc=%4.2f stable=%4.2f -> %s\n",
			ps.Config.Name, ws.QueriesPerDay, ws.IncRatio, ws.StableRatio, status)
		if ok {
			passed = append(passed, ps)
		}
	}

	// Stage 2 — learned Ranker. Train it on half the passed projects using
	// their measured improvement space, rank the other half.
	var samples []selector.RankerSample
	var heldFeats [][][]float64 // one per held-out project, in passed order
	truth := map[string]float64{}
	for i, ps := range passed {
		projSamples, improvement := measure(ps)
		truth[ps.Config.Name] = improvement
		if i < len(passed)/2 {
			samples = append(samples, projSamples...)
			continue
		}
		feats := make([][]float64, 0, len(projSamples))
		for _, s := range projSamples {
			feats = append(feats, s.Features)
		}
		heldFeats = append(heldFeats, feats)
	}
	ranker := selector.TrainRanker(samples)
	scores := map[string]float64{}
	for i, ps := range passed[len(passed)/2:] {
		scores[ps.Config.Name] = ranker.ScoreWorkload(heldFeats[i])
	}

	fmt.Println("\nstage 2 — learned ranker (held-out projects):")
	ranked := selector.RankProjects(scores)
	for i, name := range ranked {
		fmt.Printf("  #%d %-8s estimated D(Md)=%.3f  measured=%.3f\n", i+1, name, scores[name], truth[name])
	}
	top := selector.TopN(ranked, 2)
	fmt.Printf("\ndeploy LOAM on top-%d: %v\n", len(top), top)
}

// measure samples a project's queries and computes per-query Ranker features
// plus the improvement space D(M_d), measured by flighting every candidate on
// a fork of the project's executor.
func measure(ps *loam.ProjectSim) ([]selector.RankerSample, float64) {
	entries := ps.Repo.All()
	s := ps.SampleWorkload(ps.Executor.Fork("flight/measure"), entries, len(entries)/6+1, 3)
	return s.RankerSamples, s.Improvement
}

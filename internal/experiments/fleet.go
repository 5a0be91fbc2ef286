package experiments

import (
	"fmt"

	"loam"
	"loam/internal/selector"
	"loam/internal/simrand"
	"loam/internal/stats"
	"loam/internal/walltime"
	"loam/internal/warehouse"
	"loam/internal/workload"
)

// FleetProject is one project of the selector-experiment fleet, with its
// measured improvement space and Ranker training samples.
type FleetProject struct {
	PS *loam.ProjectSim
	// Improvement is the mean relative D(M_d) over the sampled workload —
	// the ground-truth relevance for ranking.
	Improvement float64
	// Samples pair each sampled query's observable default-plan features
	// with its measured improvement space.
	Samples []selector.RankerSample
	// Stats are the App.-D.1 filter metrics.
	Stats selector.WorkloadStats
}

// Fleet builds (and caches) a heterogeneous fleet of projects for the
// project-selection experiments: varied catalog sizes, statistics quality,
// query volumes and table churn, mirroring the paper's 28–30 sampled
// production projects. The fleet runs in a simulation of its own, so building
// it leaves the evaluation projects' cluster alone.
func (e *Env) Fleet() []*FleetProject {
	if e.fleet != nil {
		return e.fleet
	}
	sw := walltime.Start()
	n := e.Cfg.FleetProjects
	if n <= 0 {
		n = 28
	}
	rng := simrand.New(e.Cfg.Seed + 999)
	sim := loam.NewSimulation(e.Cfg.Seed, loam.DefaultSimulationConfig())
	days := 8
	sampleQueries := 10

	for i := 0; i < n; i++ {
		pr := rng.DeriveN("fleet", i)
		arch := warehouse.DefaultArchetype()
		arch.Name = fmt.Sprintf("fleet%02d", i)
		arch.NumTables = 15 + pr.Intn(50)
		arch.ColumnsPerTable = 5 + pr.Intn(14)
		arch.RowsLog10Mean = pr.Uniform(3.8, 5.8)
		arch.TempTableFrac = pr.Uniform(0, 0.6)

		wl := workload.DefaultConfig()
		wl.NumTemplates = 4 + pr.Intn(8)
		wl.QueriesPerDayMean = pr.Uniform(1.5, 14) * e.Cfg.WorkloadScale
		wl.PushDifficultProb = pr.Uniform(0.1, 0.5)
		wl.MinTables = 2
		wl.MaxTables = 3 + pr.Intn(4)

		pol := e.randomStatsPolicy(pr)

		ps := sim.AddProject(loam.ProjectConfig{
			Name:        arch.Name,
			Archetype:   arch,
			Workload:    wl,
			StatsPolicy: pol,
		})
		ps.RunDays(0, days)

		fp := &FleetProject{PS: ps}
		fp.Stats = selector.ComputeStats(ps.Repo.All(), ps.Project, 30)

		// Sample queries and measure their improvement space the way
		// App. E.1 prescribes: flight each candidate repeatedly, fit
		// log-normals, integrate the deviance.
		entries := ps.Repo.All()
		sample := ps.SampleWorkload(ps.Executor.Fork("flight/fleet"), entries, len(entries)/sampleQueries+1, 3)
		fp.Samples, fp.Improvement = sample.RankerSamples, sample.Improvement
		e.fleet = append(e.fleet, fp)
	}
	e.Cfg.logf("built fleet: %d projects (%.1fs)", len(e.fleet), sw.Seconds())
	return e.fleet
}

// randomStatsPolicy spreads statistics quality across the fleet.
func (e *Env) randomStatsPolicy(pr *simrand.RNG) (pol stats.Policy) {
	pol.ColumnStatsProb = pr.Uniform(0.1, 0.95)
	pol.FreshProb = pr.Uniform(0.2, 0.95)
	pol.MaxStalenessDays = 5 + pr.Intn(25)
	pol.NDVNoise = pr.Uniform(0.1, 0.9)
	return pol
}

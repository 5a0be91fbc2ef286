// Package experiments regenerates every table and figure of the paper's
// evaluation (§7): one function per artifact, run by the loam-bench CLI.
// DESIGN.md carries the experiment index; EXPERIMENTS.md records
// paper-vs-measured results.
package experiments

import (
	"fmt"
	"io"

	"loam/internal/predictor"
	"loam/internal/stats"
	"loam/internal/warehouse"
	"loam/internal/workload"
)

// Config scales the experiment suite. The default is a reduced, laptop-scale
// configuration; WorkloadScale 5 approaches the paper's workload sizes.
type Config struct {
	Seed uint64
	// TrainDays and TestDays split each project's history (paper: 25/5).
	TrainDays int
	TestDays  int
	// MaxTrain caps training sets (paper: 10,000).
	MaxTrain int
	// Epochs for neural predictors.
	Epochs int
	// EvalQueries caps the number of test queries evaluated per project.
	EvalQueries int
	// EvalReps is how many times each candidate plan is executed to obtain
	// ground-truth cost distributions (the paper executes each candidate
	// multiple times and averages).
	EvalReps int
	// WorkloadScale multiplies template counts and daily query volumes.
	WorkloadScale float64
	// FleetProjects is the project-fleet size for selector experiments
	// (paper: 28–30 sampled projects).
	FleetProjects int
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Default returns the reduced-scale configuration loam-bench runs without
// -tiny.
func Default() Config {
	return Config{
		Seed:          42,
		TrainDays:     25,
		TestDays:      5,
		MaxTrain:      10_000,
		Epochs:        14,
		EvalQueries:   50,
		EvalReps:      5,
		WorkloadScale: 1,
		FleetProjects: 28,
	}
}

// Tiny returns a minimal configuration for fast integration tests.
func Tiny() Config {
	return Config{
		Seed:          42,
		TrainDays:     6,
		TestDays:      2,
		MaxTrain:      400,
		Epochs:        3,
		EvalQueries:   8,
		EvalReps:      3,
		WorkloadScale: 0.4,
		FleetProjects: 8,
	}
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// predictorConfig derives the model hyperparameters from the experiment
// config.
func (c Config) predictorConfig(kind predictor.Kind) predictor.Config {
	pc := predictor.DefaultConfig()
	pc.Kind = kind
	pc.Epochs = c.Epochs
	pc.Seed = c.Seed + uint64(kind)
	return pc
}

// ProjectSpec ties a paper evaluation project to its simulated archetype.
// The five specs are tuned to reproduce Table 1's shape (table/column
// counts, query volumes, average CPU cost magnitudes) and §7's improvement-
// space pattern: Projects 2 and 5 have large headroom (badly degraded
// statistics), Project 1 moderate headroom, Projects 3 and 4 little headroom
// (near-pristine statistics), and Project 4 additionally has scarce
// training data.
type ProjectSpec struct {
	Name      string
	Archetype warehouse.Archetype
	Workload  workload.Config
	Stats     stats.Policy
}

// EvalProjectSpecs returns the five evaluation projects at the config's
// workload scale.
func (c Config) EvalProjectSpecs() []ProjectSpec {
	s := c.WorkloadScale
	if s <= 0 {
		s = 1
	}
	scale := func(base float64) float64 { return base * s }
	tpl := func(base int) int {
		v := int(float64(base) * s)
		if v < 3 {
			v = 3
		}
		return v
	}

	wl := func(templates int, qpd float64, pushDifficult float64, minT, maxT int) workload.Config {
		w := workload.DefaultConfig()
		w.NumTemplates = tpl(templates)
		w.QueriesPerDayMean = scale(qpd)
		w.PushDifficultProb = pushDifficult
		w.MinTables = minT
		w.MaxTables = maxT
		w.NoiseSigmaMax = 0.25
		return w
	}
	arch := func(name string, tables, cols int, rowsMean, rowsStd float64) warehouse.Archetype {
		a := warehouse.DefaultArchetype()
		a.Name = name
		a.NumTables = tables
		a.ColumnsPerTable = cols
		a.RowsLog10Mean = rowsMean
		a.RowsLog10Std = rowsStd
		return a
	}

	degraded := stats.Policy{ColumnStatsProb: 0.38, FreshProb: 0.30, MaxStalenessDays: 25, NDVNoise: 0.8}
	moderate := stats.Policy{ColumnStatsProb: 0.85, FreshProb: 0.85, MaxStalenessDays: 10, NDVNoise: 0.2}
	pristine := stats.Policy{ColumnStatsProb: 0.95, FreshProb: 0.90, MaxStalenessDays: 5, NDVNoise: 0.1}

	return []ProjectSpec{
		{
			// Project 1: moderate headroom (paper D(M_d) ≈ 25%), plenty of
			// training data, mid-sized costs (avg ≈ 11.5k).
			Name:      "project1",
			Archetype: arch("project1", 60, 14, 4.7, 0.9),
			Workload:  wl(12, 10, 0.25, 2, 5),
			Stats:     moderate,
		},
		{
			// Project 2: large headroom (≈43%), few wide tables, very large
			// costs (avg ≈ 1.8M).
			Name:      "project2",
			Archetype: arch("project2", 30, 6, 6.2, 0.7),
			Workload:  wl(12, 12, 0.55, 3, 6),
			Stats:     degraded,
		},
		{
			// Project 3: little headroom (≈20%), many columns (hardest data
			// distributions to learn), small costs (avg ≈ 3.3k).
			Name:      "project3",
			Archetype: arch("project3", 85, 21, 4.2, 0.8),
			Workload:  wl(12, 10, 0.30, 2, 5),
			Stats:     pristine,
		},
		{
			// Project 4: little headroom (≈23%) and scarce training data
			// (paper: 4,187 training queries vs 10,000).
			Name:      "project4",
			Archetype: arch("project4", 50, 17, 4.0, 0.8),
			Workload:  wl(8, 4, 0.30, 2, 4),
			Stats:     pristine,
		},
		{
			// Project 5: large headroom (≈40%), large costs (avg ≈ 103k),
			// slightly fewer training queries (paper: 8,701).
			Name:      "project5",
			Archetype: arch("project5", 55, 9, 5.5, 0.8),
			Workload:  wl(11, 11, 0.50, 2, 5),
			Stats:     degraded,
		},
	}
}

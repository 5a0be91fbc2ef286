package loam

import (
	"testing"

	"loam/internal/stats"
)

// TestHeadroomDiagnostic measures the improvement space D(M_d) of the
// candidate sets under two statistics policies: a degraded one (high
// headroom expected) and a pristine one (native near-optimal expected). This
// guards the central mechanism of the reproduction — that stale/missing
// statistics are what give candidates headroom over default plans.
func TestHeadroomDiagnostic(t *testing.T) {
	measure := func(name string, pol stats.Policy, mutate func(*ProjectConfig)) (headroom float64) {
		sim := NewSimulation(23, DefaultSimulationConfig())
		cfg := DefaultProjectConfig(name)
		cfg.Archetype.NumTables = 30
		cfg.Archetype.RowsLog10Mean = 5.5
		cfg.Workload.NumTemplates = 20
		cfg.StatsPolicy = pol
		if mutate != nil {
			mutate(&cfg)
		}
		ps := sim.AddProject(cfg)

		day := 3
		ex := ps.Explorer(day)
		exAll := *ps.Explorer(day) // a copy: the project's explorer is shared
		exAll.TopK = 0             // uncut candidate set: the exploration ceiling
		totalDef, totalBest := 0.0, 0.0
		perQuery, perQueryAll := 0.0, 0.0
		queries := 0
		flagCounts := map[string]int{}
		for _, tpl := range ps.Gen.Templates {
			q := tpl.Instantiate(ps.rng.Derive("diag"), day)
			cands := ex.Candidates(q)
			// Deterministic env: work-only comparison isolates plan quality.
			defWork, _, _, _ := ps.Executor.Work(cands[0], day)
			best := defWork
			bestKnobs := "default"
			for _, c := range cands[1:] {
				w, _, _, _ := ps.Executor.Work(c, day)
				if w < best {
					best = w
					bestKnobs = ""
					for _, k := range c.Knobs {
						bestKnobs += k + " "
					}
				}
			}
			bestAll := defWork
			for _, c := range exAll.Candidates(q)[1:] {
				if w, _, _, _ := ps.Executor.Work(c, day); w < bestAll {
					bestAll = w
				}
			}
			flagCounts[bestKnobs]++
			totalDef += defWork
			totalBest += best
			perQuery += 1 - best/defWork
			perQueryAll += 1 - bestAll/defWork
			queries++
		}
		headroom = perQuery / float64(queries)
		t.Logf("%s: queries=%d aggHeadroom=%.1f%% perQuery=%.1f%% ceiling=%.1f%% winners=%v",
			name, queries, (1-totalBest/totalDef)*100, headroom*100,
			perQueryAll/float64(queries)*100, flagCounts)
		return headroom
	}

	degraded := measure("degraded", stats.Policy{ColumnStatsProb: 0.25, FreshProb: 0.3, MaxStalenessDays: 25, NDVNoise: 0.6}, nil)
	pristine := measure("pristine", stats.Policy{ColumnStatsProb: 1, FreshProb: 1, MaxStalenessDays: 0, NDVNoise: 0.02}, nil)
	measure("harsh", stats.Policy{ColumnStatsProb: 0.05, FreshProb: 0.1, MaxStalenessDays: 30, NDVNoise: 1.2}, func(cfg *ProjectConfig) {
		cfg.Archetype.RowsLog10Std = 1.6
		cfg.Archetype.RowsLog10Mean = 6.0
		cfg.Archetype.GrowthMean = 1.04
		cfg.Workload.MinTables = 3
		cfg.Workload.MaxTables = 7
		cfg.Workload.PushDifficultProb = 0.5
	})

	if degraded <= pristine {
		t.Errorf("expected degraded stats to create more headroom: degraded=%.3f pristine=%.3f", degraded, pristine)
	}
	if degraded < 0.05 {
		t.Errorf("degraded headroom too small for the paper's shapes: %.3f", degraded)
	}
}

// Steering: deploy LOAM over a join-heavy analytics project with degraded
// statistics (the paper's high-headroom regime) and compare steered vs
// default execution for a full test window, printing a per-query win/loss
// report in the style of the paper's §7.2.2.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"

	"loam"
	"loam/internal/predictor"
	"loam/internal/stats"
)

func main() {
	ctx := context.Background()
	sim := loam.NewSimulation(21, loam.DefaultSimulationConfig())

	cfg := loam.DefaultProjectConfig("analytics")
	cfg.Archetype.RowsLog10Mean = 5.4
	cfg.Workload.NumTemplates = 12
	cfg.Workload.QueriesPerDayMean = 8
	cfg.Workload.MinTables = 3
	cfg.Workload.MaxTables = 6
	cfg.Workload.PushDifficultProb = 0.45
	// Degraded statistics: the regime in which the native optimizer leaves
	// real headroom on the table (Challenge C2).
	cfg.StatsPolicy = stats.Policy{ColumnStatsProb: 0.2, FreshProb: 0.3, MaxStalenessDays: 25, NDVNoise: 0.8}
	ps := sim.AddProject(cfg)

	const days = 16
	ps.RunDays(0, days)

	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = 13
	dcfg.TestDays = 3
	// Deploy options: share the simulation's registry so the closing metrics
	// dump covers substrate, training and serving in one snapshot, and pick
	// the §5 mean-environment strategy explicitly.
	dep, err := ps.Deploy(dcfg,
		loam.WithStrategy(predictor.StrategyMeanEnv),
		loam.WithMetrics(sim.Telemetry()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed on %q: %d training plans, %d test queries\n",
		cfg.Name, dep.TrainSize, len(dep.TestSet))

	type outcome struct {
		id       string
		def, got float64
	}
	var results []outcome
	limit := 40
	for _, e := range dep.TestSet {
		if len(results) >= limit {
			break
		}
		choice, err := dep.OptimizeCtx(ctx, e.Query)
		if err != nil {
			log.Fatal(err)
		}
		got := ps.Executor.Flight(choice.Chosen, e.Query.Day, 3, ps.ExecOptions(e.Query))
		def := ps.Executor.Flight(choice.Candidates[0], e.Query.Day, 3, ps.ExecOptions(e.Query))
		results = append(results, outcome{id: e.Query.ID, def: def, got: got})
	}

	sort.Slice(results, func(i, j int) bool {
		return results[i].def-results[i].got < results[j].def-results[j].got
	})
	var speedups, slowdowns int
	var totalDef, totalGot float64
	fmt.Println("per-query (sorted slowdown -> speedup):")
	for _, r := range results {
		delta := r.def - r.got
		tag := " "
		switch {
		case delta > 0.02*r.def:
			tag = "+"
			speedups++
		case delta < -0.02*r.def:
			tag = "-"
			slowdowns++
		}
		totalDef += r.def
		totalGot += r.got
		fmt.Printf("  %s %-30s default=%10.0f steered=%10.0f delta=%+10.0f\n", tag, r.id, r.def, r.got, delta)
	}
	fmt.Printf("\n%d speedups, %d slowdowns over %d queries\n", speedups, slowdowns, len(results))
	if totalDef > 0 {
		fmt.Printf("aggregate CPU cost: steered %.0f vs default %.0f (%.1f%% saved)\n",
			totalGot, totalDef, (1-totalGot/totalDef)*100)
	}

	fmt.Println("\ntelemetry snapshot (deterministic):")
	if err := sim.Metrics().WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Quickstart: stand up a simulated warehouse project, build query history,
// train a LOAM deployment, and steer one query.
package main

import (
	"context"
	"fmt"
	"log"

	"loam"
)

func main() {
	ctx := context.Background()

	// One shared multi-tenant cluster, one project.
	sim := loam.NewSimulation(7, loam.DefaultSimulationConfig())
	cfg := loam.DefaultProjectConfig("quickstart")
	cfg.Workload.NumTemplates = 10
	cfg.Workload.QueriesPerDayMean = 6
	ps := sim.AddProject(cfg)

	// Simulate 10 production days: the native optimizer plans each query,
	// the cluster executes it, the repository logs it.
	ps.RunDays(0, 10)
	fmt.Printf("history: %d executions\n", ps.Repo.Len())

	// Train the adaptive cost predictor from the first 8 days.
	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = 8
	dcfg.TestDays = 2
	dcfg.Predictor.Epochs = 6
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d plans in %.1fs (%.1f MB)\n",
		dep.TrainSize, dep.Predictor().Metrics().TrainSeconds,
		float64(dep.Predictor().Metrics().ModelBytes)/1e6)

	// Steer one fresh query: explore candidates, predict costs under the
	// average-case environment, execute the cheapest.
	q := ps.Gen.Day(10)[0]
	choice, err := dep.OptimizeCtx(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %s: %d candidates\n", q.ID, len(choice.Candidates))
	for i, est := range choice.Estimates {
		marker := "  "
		if i == choice.ChosenIdx {
			marker = "->"
		}
		fmt.Printf("%s candidate %d est=%.0f knobs=%v\n", marker, i, est, choice.Candidates[i].Knobs)
	}
	rec := dep.ExecuteChoice(choice)
	fmt.Printf("executed: CPU cost %.0f (latency %.0fs across %d stages)\n",
		rec.CPUCost, rec.LatencySec, len(rec.StageCosts))

	// Fleet serving: put the same deployment behind the fleet registry.
	// Route is the multi-tenant entry point — admission control, the
	// recurring-query lane and the global plan-cache budget all apply here.
	reg := sim.NewFleet(loam.DefaultFleetConfig())
	if err := reg.Register("quickstart", dep); err != nil {
		log.Fatal(err)
	}
	routed, err := reg.Route(ctx, "quickstart", ps.Gen.Day(10)[1])
	if err != nil {
		log.Fatal(err)
	}
	budget := reg.Budget()
	fmt.Printf("routed: origin=%s cache %d/%d entries granted\n",
		routed.Origin, budget.Entries, budget.Granted)
}

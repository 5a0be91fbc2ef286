// Command loam-sim stands up a simulated MaxCompute project, builds query
// history, trains a LOAM deployment, and steers a day's queries — printing
// each optimizer decision. A quick way to watch the whole pipeline operate.
//
// Usage:
//
//	loam-sim [-seed N] [-days N] [-templates N] [-qpd F] [-steer N] [-v]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"loam"
	"loam/internal/history"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loam-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("loam-sim", flag.ContinueOnError)
	var (
		seed      = fs.Uint64("seed", 7, "simulation seed")
		days      = fs.Int("days", 12, "history days before deployment")
		templates = fs.Int("templates", 10, "workload templates")
		qpd       = fs.Float64("qpd", 8, "mean queries per day per template")
		steer     = fs.Int("steer", 10, "queries to steer after deployment")
		verbose   = fs.Bool("v", false, "print chosen plans")
	)
	fs.SetOutput(errw)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage; asking for it is not a failure
		}
		return err
	}
	// Usage errors run nothing; -steer -2 used to panic after a full deploy.
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *days < 0 || *templates < 0 || *steer < 0 || *qpd < 0 {
		fs.Usage()
		return errors.New("-days, -templates, -qpd and -steer must not be negative")
	}

	sim := loam.NewSimulation(*seed, loam.DefaultSimulationConfig())
	cfg := loam.DefaultProjectConfig("demo")
	cfg.Workload.NumTemplates = *templates
	cfg.Workload.QueriesPerDayMean = *qpd
	ps := sim.AddProject(cfg)

	fmt.Fprintf(out, "project %q: %d tables, %d columns\n",
		cfg.Name, len(ps.Project.Tables), ps.Project.NumColumns())

	trainDays := *days * 3 / 4
	if trainDays < 1 {
		trainDays = 1
	}
	ps.RunDays(0, *days)
	fmt.Fprintf(out, "history: %d executions over %d days, avg cost %.0f\n",
		ps.Repo.Len(), *days, history.AvgCost(ps.Repo.All()))

	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = trainDays
	dcfg.TestDays = *days - trainDays
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		return err
	}
	met := dep.Predictor().Metrics()
	fmt.Fprintf(out, "deployed LOAM: %d training plans, %.1fs training, %.1f MB model\n",
		dep.TrainSize, met.TrainSeconds, float64(met.ModelBytes)/1e6)

	day := *days
	queries := ps.Gen.Day(day)
	if len(queries) > *steer {
		queries = queries[:*steer]
	}
	ctx := context.Background()
	var totalDefault, totalChosen float64
	for _, q := range queries {
		choice, err := dep.OptimizeCtx(ctx, q)
		if err != nil {
			return err
		}
		rec := dep.ExecuteChoice(choice)
		defCost := ps.Executor.Flight(choice.Candidates[0], day, 1, ps.ExecOptions(q))
		totalDefault += defCost
		totalChosen += rec.CPUCost
		// Fallback choices carry no learned estimate (and a native re-plan
		// has no candidate index): render the gaps instead of indexing.
		est := "-"
		idx := "-"
		if choice.ChosenIdx >= 0 {
			idx = fmt.Sprintf("#%d", choice.ChosenIdx)
		}
		if choice.Origin == loam.OriginLearned {
			est = fmt.Sprintf("%.0f", choice.Estimates[choice.ChosenIdx])
		}
		fmt.Fprintf(out, "%-28s cands=%d chosen=%-3s origin=%-16s est=%-10s actual=%-10.0f default=%-10.0f knobs=%v\n",
			q.ID, len(choice.Candidates), idx, choice.Origin,
			est, rec.CPUCost, defCost, choice.Chosen.Knobs)
		if *verbose {
			fmt.Fprint(out, choice.Chosen.String())
		}
	}
	if totalDefault > 0 {
		fmt.Fprintf(out, "steered %d queries: total cost %.0f vs default %.0f (%.1f%% change)\n",
			len(queries), totalChosen, totalDefault, (totalChosen/totalDefault-1)*100)
	}
	return nil
}

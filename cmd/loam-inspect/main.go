// Command loam-inspect is the operator's magnifying glass over a simulated
// project: it reports the catalog, how far the optimizer-visible statistics
// have drifted from the ground truth (Challenge C2 made visible), the
// workload's templates, and — for a chosen query — the full candidate set
// with the native optimizer's rough costs, the simulator's true work, and
// the stage decomposition.
//
// Usage:
//
//	loam-inspect [-seed N] [-day N] [-section catalog|stats|templates|query|metrics|all]
//	             [-template N] [-tables N] [-statsprob F]
//	loam-inspect metrics [-seed N] [-tables N]
//	loam-inspect fsck <store-dir>
//
// The metrics section (also reachable as -section metrics) is opt-in and not
// part of "all": it runs a small end-to-end demo — history, a tiny training
// run, a handful of steered queries — and dumps the combined telemetry
// snapshot plus the reporting-only wall timings.
//
// The fsck subcommand checks a durable model store offline (see DESIGN.md
// "Durability & recovery contract"): the manifest frame, every referenced
// snapshot's checksum, and journal segment integrity. It prints a
// deterministic report and exits non-zero when the store is corrupt;
// repairable residue of a crash (a torn journal tail, an orphaned snapshot)
// is reported but does not fail the check.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"loam"
	"loam/internal/durable"
	"loam/internal/exec"
	"loam/internal/nativeopt"
	"loam/internal/stats"
	"loam/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loam-inspect:", err)
		os.Exit(1)
	}
}

// sections are the valid -section values; "metrics" is opt-in, not in "all".
const sections = "catalog|stats|templates|query|metrics|all"

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("loam-inspect", flag.ContinueOnError)
	var (
		seed      = fs.Uint64("seed", 7, "simulation seed")
		day       = fs.Int("day", 3, "catalog/statistics day to inspect")
		section   = fs.String("section", "all", sections)
		template  = fs.Int("template", 0, "template index for -section query")
		tables    = fs.Int("tables", 20, "tables in the generated project")
		statsProb = fs.Float64("statsprob", 0.5, "probability a table has column statistics")
	)
	fs.SetOutput(errw)
	// Flags may follow a subcommand as well as precede it (loam-inspect
	// metrics -seed 9): parse up to each positional argument and resume after.
	var pos []string
	for rest := args; ; rest = fs.Args()[1:] {
		if err := fs.Parse(rest); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return nil // -h printed the usage; asking for it is not a failure
			}
			return err
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
	}
	if len(pos) > 0 {
		switch pos[0] {
		case "metrics":
			if len(pos) > 1 {
				return fmt.Errorf("unknown arguments %q after \"metrics\"", pos[1:])
			}
			*section = "metrics"
		case "fsck":
			if len(pos) != 2 {
				return fmt.Errorf("usage: loam-inspect fsck <store-dir>")
			}
			return fsck(out, pos[1])
		default:
			return fmt.Errorf("unknown arguments %q (subcommands: \"metrics\", \"fsck <store-dir>\")", pos)
		}
	}

	if !slices.Contains(strings.Split(sections, "|"), *section) {
		return fmt.Errorf("unknown -section %q (valid: %s)", *section, sections)
	}

	sim := loam.NewSimulation(*seed, loam.DefaultSimulationConfig())
	cfg := loam.DefaultProjectConfig("inspect")
	cfg.Archetype.NumTables = *tables
	cfg.Workload.NumTemplates = 10
	cfg.StatsPolicy = stats.Policy{
		ColumnStatsProb:  *statsProb,
		FreshProb:        0.5,
		MaxStalenessDays: 20,
		NDVNoise:         0.5,
	}
	ps := sim.AddProject(cfg)

	want := func(s string) bool { return *section == "all" || *section == s }
	if want("catalog") {
		catalog(out, ps, *day)
	}
	if want("stats") {
		statsDivergence(out, ps, *day)
	}
	if want("templates") {
		templates(out, ps)
	}
	if want("query") {
		if err := queryDetail(out, ps, *template, *day); err != nil {
			return err
		}
	}
	// Opt-in only: the metrics demo trains a model, so it never rides along
	// with "all".
	if *section == "metrics" {
		if err := metricsDemo(context.Background(), out, sim, ps); err != nil {
			return err
		}
	}
	return nil
}

// fsck checks a durable store offline and renders the deterministic report;
// a store with integrity problems makes the command exit non-zero.
func fsck(out io.Writer, dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	rep := durable.Fsck(dir)
	rep.Render(out)
	if !rep.OK() {
		return fmt.Errorf("fsck: %d problem(s) in %s", len(rep.Problems), dir)
	}
	return nil
}

// metricsDemo exercises the full pipeline against the simulation's shared
// registry — production history, a tiny training run, a few steered queries —
// then dumps the deterministic snapshot and the wall timings.
func metricsDemo(ctx context.Context, out io.Writer, sim *loam.Simulation, ps *loam.ProjectSim) error {
	ps.RunDays(0, 8)
	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = 6
	dcfg.TestDays = 2
	dcfg.DomainPlans = 32
	dcfg.Predictor.Epochs = 3
	dep, err := ps.Deploy(dcfg, loam.WithMetrics(sim.Telemetry()))
	if err != nil {
		return err
	}
	for i, q := range ps.Gen.Day(6) {
		if i == 5 {
			break
		}
		if _, err := dep.OptimizeCtx(ctx, q); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "== metrics (deterministic snapshot) ==\n")
	if err := dep.Metrics().WriteText(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n== wall timings (reporting-only, excluded from the snapshot) ==\n")
	return telemetry.WriteWallText(out, dep.Telemetry().WallTimings())
}

func catalog(out io.Writer, ps *loam.ProjectSim, day int) {
	fmt.Fprintf(out, "== catalog (%s, day %d) ==\n", ps.Config.Name, day)
	fmt.Fprintf(out, "%d tables, %d columns, %d alive today\n",
		len(ps.Project.Tables), ps.Project.NumColumns(), len(ps.Project.AliveTables(day)))
	fmt.Fprintf(out, "%-14s %12s %6s %6s %6s %s\n", "table", "rows", "parts", "cols", "temp", "lifespan")
	for _, t := range ps.Project.Tables {
		fmt.Fprintf(out, "%-14s %12d %6d %6d %6v %d days\n",
			t.ID, t.RowsAt(day), t.Partitions, len(t.Columns), t.Temp, t.LifespanDays)
	}
}

func statsDivergence(out io.Writer, ps *loam.ProjectSim, day int) {
	fmt.Fprintf(out, "\n== statistics view vs ground truth (day %d) ==\n", day)
	v := ps.View(day)
	fmt.Fprintf(out, "%-14s %10s %10s %8s %9s %9s\n",
		"table", "true rows", "est rows", "err%", "colStats", "staleness")
	missing := 0
	for _, t := range ps.Project.AliveTables(day) {
		ts, ok := v.Tables[t.ID]
		if !ok {
			continue
		}
		trueRows := t.RowsAt(day)
		errPct := 0.0
		if trueRows > 0 {
			errPct = (float64(ts.Rows)/float64(trueRows) - 1) * 100
		}
		has := "yes"
		if ts.Columns == nil {
			has = "MISSING"
			missing++
		}
		fmt.Fprintf(out, "%-14s %10d %10d %7.1f%% %9s %6d d\n",
			t.ID, trueRows, ts.Rows, errPct, has, day-ts.SnapshotDay)
	}
	fmt.Fprintf(out, "%d/%d tables lack column statistics — join reordering disabled for queries touching them (§2.1)\n",
		missing, len(v.Tables))
}

func templates(out io.Writer, ps *loam.ProjectSim) {
	fmt.Fprintf(out, "\n== workload templates ==\n")
	for i, tpl := range ps.Gen.Templates {
		hard := 0
		for _, specs := range tpl.Filters {
			for _, s := range specs {
				if s.PushDifficult {
					hard++
				}
			}
		}
		fmt.Fprintf(out, "#%-2d %-22s tables=%d joins=%d filters=%d(hard %d) aggs=%d sigma=%.2f qpd=%.1f\n",
			i, tpl.ID, len(tpl.Tables), len(tpl.Joins), len(tpl.Filters), hard, len(tpl.Aggs),
			tpl.NoiseSigma, tpl.QueriesPerDay)
	}
}

func queryDetail(out io.Writer, ps *loam.ProjectSim, template, day int) error {
	if template < 0 || template >= len(ps.Gen.Templates) {
		return fmt.Errorf("template %d out of range [0,%d)", template, len(ps.Gen.Templates))
	}
	tpl := ps.Gen.Templates[template]
	q := tpl.Instantiate(ps.Rng("inspect"), day)
	fmt.Fprintf(out, "\n== query %s ==\n", q.ID)
	fmt.Fprintf(out, "tables: %s\n", strings.Join(q.Tables, ", "))

	native := nativeopt.New(ps.View(day))
	cands := ps.Explorer(day).Candidates(q)
	type row struct {
		idx   int
		knobs string
		rough float64
		work  float64
	}
	var rows []row
	for i, c := range cands {
		work, _, _, _ := ps.Executor.Work(c, day)
		knobs := "default"
		if len(c.Knobs) > 0 {
			knobs = strings.Join(c.Knobs, ",")
		}
		rows = append(rows, row{idx: i, knobs: knobs, rough: native.RoughCost(c), work: work})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].work < rows[j].work })
	fmt.Fprintf(out, "%-4s %-28s %12s %12s\n", "#", "knobs", "roughCost", "trueWork")
	for _, r := range rows {
		fmt.Fprintf(out, "%-4d %-28s %12.0f %12.0f\n", r.idx, r.knobs, r.rough, r.work)
	}

	fmt.Fprintf(out, "\ndefault plan:\n%s", cands[0])
	d := exec.Decompose(cands[0].Root)
	fmt.Fprintf(out, "stage decomposition: %d stages\n", len(d.Stages))
	for _, s := range d.Stages {
		ops := make([]string, len(s.Nodes))
		for i, n := range s.Nodes {
			ops[i] = n.Op.String()
		}
		fmt.Fprintf(out, "  stage %d: %s\n", s.ID, strings.Join(ops, " -> "))
	}
	return nil
}

// Command loam-bench regenerates the paper's tables and figures from the
// simulated MaxCompute deployment.
//
// Usage:
//
//	loam-bench [-run all|ID[,ID...]] [-seed N] [-scale F] [-epochs N] [-eval N]
//	           [-tiny] [-quiet] [-metrics]
//
// The ids are the entries of experimentTable, in the order `all` runs them;
// `loam-bench -h` lists them and an id not in the table is an error.
//
// Each experiment prints the same rows/series the paper reports; absolute
// numbers come from the simulator, shapes are the reproduction target (see
// EXPERIMENTS.md). Serving performance is not measured here — that is the
// BENCHMARK.json harness in bench/ — and the serving stack's proofs are Go
// tests (`make chaos`, `make chaos-recover`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"loam/internal/experiments"
	"loam/internal/walltime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loam-bench:", err)
		os.Exit(1)
	}
}

// bench is one invocation: where its experiments run and print.
type bench struct {
	env *experiments.Env
	out io.Writer
	// f6 is the Fig. 6 evaluation the experiments marked onFig6 share; run
	// computes it before the first of them.
	f6 *experiments.Fig6Result
}

// experimentTable is every -run id, in the order `all` runs and prints them:
// exactly the sections of results_default.txt and results_ext.txt, each file
// listing its own in this order. The -run help text and the unknown-id error
// are generated from it.
var experimentTable = []struct {
	id     string
	onFig6 bool
	run    func(b *bench) error
}{
	{"fig1", false, func(b *bench) error { return b.show(b.env.Fig1(), nil) }},
	{"table1", false, func(b *bench) error { return b.show(b.env.Table1(), nil) }},
	{"fig5", false, func(b *bench) error { return b.show(b.env.Fig5(), nil) }},
	{"fig15", false, func(b *bench) error { return b.show(b.env.Fig15(), nil) }},
	{"fig6", true, func(b *bench) error { return b.show(b.f6, nil) }},
	{"fig7", true, func(b *bench) error { return b.show(b.env.Fig7(b.f6), nil) }},
	{"fig9", true, func(b *bench) error { return b.show(b.env.Fig9(b.f6), nil) }},
	{"fig11", true, func(b *bench) error { return b.show(b.env.Fig11(b.f6)) }},
	{"fig10", true, func(b *bench) error { return b.show(b.env.Fig10(b.f6)) }},
	{"fig8", true, func(b *bench) error { return b.show(b.env.Fig8(b.f6)) }},
	{"thm1", false, func(b *bench) error { return b.show(b.env.Thm1(), nil) }},
	{"ext1", false, func(b *bench) error { return b.show(b.env.Ext1(), nil) }},
	{"ext2", false, func(b *bench) error { return b.show(b.env.Ext2()) }},
	{"ext3", false, func(b *bench) error { return b.show(b.env.Ext3()) }},
	{"fig12", false, func(b *bench) error { return b.show(b.env.Fig12(), nil) }},
	{"fig16", false, func(b *bench) error { return b.show(b.env.Fig16(), nil) }},
	{"sec73", true, func(b *bench) error { return b.show(b.env.Sec73(b.f6), nil) }},
}

// show renders one experiment's result unless the experiment failed.
func (b *bench) show(r interface{ Render(io.Writer) }, err error) error {
	if err != nil {
		return err
	}
	r.Render(b.out)
	return nil
}

// validIDs is what -run accepts: all, then the table's ids.
func validIDs() []string {
	ids := []string{"all"}
	for _, e := range experimentTable {
		ids = append(ids, e.id)
	}
	return ids
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("loam-bench", flag.ContinueOnError)
	valid := validIDs()
	var (
		runSpec = fs.String("run", "all", "comma-separated experiment ids ("+strings.Join(valid, ", ")+")")
		seed    = fs.Uint64("seed", 42, "root seed for the whole simulation")
		scale   = fs.Float64("scale", 1, "workload scale multiplier (5 ≈ paper scale)")
		epochs  = fs.Int("epochs", 0, "override training epochs (0 = default)")
		evalQ   = fs.Int("eval", 0, "override test queries per project (0 = default)")
		tiny    = fs.Bool("tiny", false, "tiny configuration for smoke runs")
		quiet   = fs.Bool("quiet", false, "suppress progress logging")
		metrics = fs.Bool("metrics", false, "dump the combined telemetry snapshot after the experiments")
	)
	fs.SetOutput(errw)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage; asking for it is not a failure
		}
		return err
	}

	// A misspelt or retired id fails the run instead of selecting nothing: a
	// stale CI step must not pass vacuously.
	want := map[string]bool{}
	for _, id := range strings.Split(*runSpec, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if !slices.Contains(valid, id) {
			return fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}

	cfg := experiments.Default()
	if *tiny {
		cfg = experiments.Tiny()
	}
	cfg.Seed = *seed
	if *scale > 0 {
		cfg.WorkloadScale *= *scale
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	if *evalQ > 0 {
		cfg.EvalQueries = *evalQ
	}
	if !*quiet {
		cfg.Log = errw
	}

	sw := walltime.Start()
	b := &bench{env: experiments.NewEnv(cfg), out: out}
	for _, e := range experimentTable {
		if !want["all"] && !want[e.id] {
			continue
		}
		if e.onFig6 && b.f6 == nil {
			f6, err := b.env.Fig6()
			if err != nil {
				return err
			}
			b.f6 = f6
		}
		fmt.Fprintf(out, "\n==== %s ====\n", e.id)
		if err := e.run(b); err != nil {
			return err
		}
	}

	if *metrics {
		// The snapshot is deterministic (stable-ordered, no wall-clock
		// values): identically-seeded runs print identical metrics sections.
		fmt.Fprintf(out, "\n==== metrics ====\n")
		if err := b.env.Metrics().WriteText(out); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "\ntotal: %.1fs\n", sw.Seconds())
	return nil
}

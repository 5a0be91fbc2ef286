// Command bench is the LOAM serving benchmark: four closed-loop workloads
// over Deployment.OptimizeCtx, FleetRegistry.Route and the optimize → execute
// → retrain loop, measured end to end with tracing off and, in a separate
// traced run, layer by layer. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the machine-readable contract.
//
//	go run ./bench                                  # all workloads, 3 runs each, fixed counts
//	go run ./bench -trace 1                         # ... plus the per-layer budget
//	go run ./bench -workload dayroll -seconds 10    # one run, result as a JSON last line
//	go run ./bench -compare A.json B.json           # verdict per metric; exit 1 if any is worse
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// workloadNames is the run order; scenario.go and README.md say why each
// exists.
var workloadNames = []string{"recurring", "dayroll", "fleet", "loop"}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run this one workload once and print the result as a JSON last line (default: all four, -runs times)")
		seed     = flag.Uint64("seed", 42, "traffic seed: request order, future days served, tenant mix")
		seconds  = flag.Float64("seconds", 0, "stop at the first unit boundary after this many timed seconds (0: serve the scenario's fixed request counts)")
		trace    = flag.Int("trace", 0, "1: staged, traced run for the per-layer metrics and a span file")
		runs     = flag.Int("runs", 3, "fresh runs per workload; the stored value is the median")
		smoke    = flag.Bool("smoke", false, "the test-sized scenario: every code path in about a second per workload")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for results.json, trace-<workload>.jsonl and the loop workload's durable store")
		compare  = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		var files [2]*resultsFile
		for i := range files {
			var err error
			if files[i], err = readResults(flag.Arg(i)); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
		if worse := compareResults(os.Stdout, files[0], files[1]); worse > 0 {
			fmt.Printf("\n%d worse\n", worse)
			return 1
		}
		return 0
	}

	o := options{sz: fullSizes, seed: *seed, seconds: *seconds, setups: setupRepeats, outDir: *out}
	if *smoke {
		o.sz = smokeSizes
	}
	ctx := context.Background()
	if *workload != "" {
		return runOne(ctx, *workload, o, *trace == 1)
	}

	rf := resultsFile{Seed: *seed, Runs: *runs, Smoke: *smoke, Seconds: *seconds}
	correct := true
	for _, name := range workloadNames {
		var rs []*runResult
		for i := 0; i < *runs; i++ {
			r, err := runUntraced(ctx, name, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			rs = append(rs, r)
			correct = correct && r.Correct
		}
		var traced *runResult
		if *trace == 1 {
			var err error
			if traced, err = runTraced(ctx, name, o); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			correct = correct && traced.Correct
		}
		ws := summarize(name, rs, traced)
		correct = correct && ws.Deterministic
		printSummary(os.Stdout, ws)
		rf.Workloads = append(rf.Workloads, ws)
	}
	path := filepath.Join(*out, "results.json")
	if err := writeResults(path, rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("\nresults written to %s\n", path)
	if !correct {
		fmt.Println("INCORRECT: a correctness check failed or same-seed runs disagreed; see above")
		return 1
	}
	return 0
}

// driverLine is the last line of a -workload run's standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the BENCHMARK.json entry point: one workload, one run, the
// result as one JSON object on the last line — the end-to-end metrics with
// tracing off, every per-layer metric with it on.
func runOne(ctx context.Context, name string, o options, traced bool) int {
	line := driverLine{Metrics: map[string]driverValue{}}
	var (
		r   *runResult
		err error
	)
	if traced {
		if r, err = runTraced(ctx, name, o); err == nil {
			for _, def := range perLayer {
				line.Metrics[def.name] = driverValue{r.Layer[def.name], def.unit}
			}
		}
	} else if r, err = runUntraced(ctx, name, o); err == nil {
		for _, def := range endToEnd {
			if def.driver {
				line.Metrics[def.name] = driverValue{r.EndToEnd[def.name], def.unit}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ws := summarize(name, []*runResult{r}, nil)
	ws.Layer = r.Layer
	printSummary(os.Stdout, ws)
	line.Correct, line.Attempted, line.Failed = r.Correct, r.Attempted, r.Failed
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%s\n", data)
	if !r.Correct {
		return 1
	}
	return 0
}

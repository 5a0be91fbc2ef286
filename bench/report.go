package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// resultsFile is what -out writes and -compare reads: every run made, plus,
// per workload, each end-to-end metric's median and quartiles over the runs.
type resultsFile struct {
	Seed    uint64  `json:"seed"`
	Runs    int     `json:"runs"`
	Smoke   bool    `json:"smoke"`
	Seconds float64 `json:"seconds"`
	// Workloads holds one summary per workload, in run order.
	Workloads []workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Name string `json:"name"`
	// Digest and Counts are those of the first run; Deterministic is false
	// when any later run of the set disagreed with it.
	Digest        string             `json:"choices_digest"`
	Counts        map[string]int64   `json:"counts"`
	Deterministic bool               `json:"deterministic"`
	Metrics       []metricSummary    `json:"end_to_end"`
	Layer         map[string]float64 `json:"per_layer,omitempty"`
	Runs          []*runResult       `json:"runs"`
}

type metricSummary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// summarize folds a workload's runs (untraced) and optional traced run.
func summarize(name string, runs []*runResult, traced *runResult) workloadSummary {
	ws := workloadSummary{Name: name, Digest: runs[0].Digest, Counts: runs[0].Counts, Deterministic: true, Runs: runs}
	for _, r := range runs[1:] {
		if r.Digest != ws.Digest || !sameCounts(r.Counts, ws.Counts) {
			ws.Deterministic = false
		}
	}
	for _, def := range endToEnd {
		if (def.only != "" && def.only != name) || runs[0].EndToEnd == nil {
			continue
		}
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = r.EndToEnd[def.name]
		}
		q1, med, q3 := quartiles(vs)
		ws.Metrics = append(ws.Metrics, metricSummary{def.name, def.unit, med, q1, q3, vs})
	}
	if traced != nil {
		ws.Layer = traced.Layer
		ws.Runs = append(ws.Runs, traced)
	}
	return ws
}

func sameCounts(a, b map[string]int64) bool {
	for _, name := range exactCounts {
		if a[name] != b[name] {
			return false
		}
	}
	return true
}

// printSummary writes one workload's numbers: every end-to-end metric by
// name with its unit, then — when traced — the per-layer budget.
func printSummary(w io.Writer, ws workloadSummary) {
	first := ws.Runs[0]
	fmt.Fprintf(w, "\n== %s: %d requests in %d units, %d failed, choices_digest %s", ws.Name, first.Attempted, first.Units, first.Failed, ws.Digest)
	if !ws.Deterministic {
		fmt.Fprint(w, "  (RUNS DISAGREE on digest or counts)")
	}
	fmt.Fprintf(w, "\n   latency from %d samples, tail at p%g; machine speed %.3f, raw %.1f req/s over the whole run\n", first.Samples, first.TailPct, first.MachineSpeed, first.RawQPS)
	fmt.Fprintf(w, "   %-20s %-10s %14s %14s %14s\n", "end-to-end", "unit", "median", "q1", "q3")
	for _, ms := range ws.Metrics {
		fmt.Fprintf(w, "   %-20s %-10s %14.6g %14.6g %14.6g\n", ms.Name, ms.Unit, ms.Median, ms.Q1, ms.Q3)
	}
	for _, name := range exactCounts {
		if v := ws.Counts[name]; v != 0 {
			fmt.Fprintf(w, "   %-31s %14d\n", name, v)
		}
	}
	for _, r := range ws.Runs {
		for _, p := range r.Problems {
			fmt.Fprintf(w, "   INCORRECT: %s\n", p)
		}
	}
	if ws.Layer == nil {
		return
	}
	fmt.Fprintf(w, "   %-34s %-8s %14s   %s\n", "per-layer (traced)", "unit", "value", "should move")
	for _, def := range perLayer {
		fmt.Fprintf(w, "   %-34s %-8s %14.6g   %s\n", def.name, def.unit, ws.Layer[def.name], def.moves)
	}
}

func writeResults(path string, rf resultsFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'))
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict classifies one metric of B against reference A, by the rule in the
// choosing-metrics guide: B is worse when its median is worse than A's by
// more than the bound; where the run-to-run spread (the wider quartile
// distance of the two sides, as a share of A's median) exceeds the bound the
// metric is unresolved, unless every run of B reads better than every run
// of A.
func verdict(def metricDef, a, b metricSummary) (delta float64, v string) {
	if a.Median == 0 && b.Median == 0 {
		return 0, "ok"
	}
	base := math.Abs(a.Median)
	if base == 0 {
		base = math.Abs(b.Median)
	}
	delta = (b.Median - a.Median) / base
	worse := delta
	if def.higher {
		worse = -delta
	}
	if def.exact {
		if math.Abs(delta) <= 1e-9 {
			return delta, "ok"
		}
		return delta, "worse"
	}
	if spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1) / base; spread > def.bound {
		if allBetter(def, a.Values, b.Values) {
			return delta, "ok"
		}
		return delta, "unresolved"
	}
	if worse > def.bound {
		return delta, "worse"
	}
	return delta, "ok"
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(def metricDef, a, b []float64) bool {
	as, bs := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	if len(as) == 0 || len(bs) == 0 {
		return false
	}
	if def.higher {
		return bs[0] > as[len(as)-1]
	}
	return bs[len(bs)-1] < as[0]
}

func metricsByName(ms []metricSummary) map[string]metricSummary {
	out := make(map[string]metricSummary, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// compareResults prints every end-to-end metric of every workload in both
// files and returns how many are worse (a differing digest or count, on
// files of the same seed, counts as worse: the plan choices changed).
func compareResults(w io.Writer, a, b *resultsFile) (worse int) {
	fmt.Fprintf(w, "A: seed %d, %d runs   B: seed %d, %d runs\n", a.Seed, a.Runs, b.Seed, b.Runs)
	sameInputs := a.Seed == b.Seed && a.Smoke == b.Smoke && a.Seconds == 0 && b.Seconds == 0
	if !sameInputs {
		fmt.Fprintln(w, "note: seed or scenario size differ, or a -seconds budget cut the runs; digests, counts and learned_ratio are not held to exact agreement")
	}
	bw := map[string]workloadSummary{}
	for _, ws := range b.Workloads {
		bw[ws.Name] = ws
	}
	for _, wa := range a.Workloads {
		wb, ok := bw[wa.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n== %s\n   %-20s %-10s %14s %14s %9s %7s  %s\n", wa.Name, "metric", "unit", "A", "B", "delta", "bound", "verdict")
		ma, mb := metricsByName(wa.Metrics), metricsByName(wb.Metrics)
		for _, def := range endToEnd {
			msa, okA := ma[def.name]
			msb, okB := mb[def.name]
			if !okA || !okB {
				continue
			}
			def.exact = def.exact || (sameInputs && def.exactSameInputs)
			delta, v := verdict(def, msa, msb)
			bound := fmt.Sprintf("%.0f%%", def.bound*100)
			if def.exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "   %-20s %-10s %14.6g %14.6g %+8.2f%% %7s  %s\n", def.name, def.unit, msa.Median, msb.Median, delta*100, bound, v)
			if v == "worse" {
				worse++
			}
		}
		if sameInputs {
			same := wa.Digest == wb.Digest && sameCounts(wa.Counts, wb.Counts) && wa.Deterministic && wb.Deterministic
			v := "ok"
			if !same {
				v = "worse"
				worse++
			}
			fmt.Fprintf(w, "   %-20s %-10s %14s %14s %9s %7s  %s\n", "choices_digest", "fnv64a", wa.Digest[:12]+"..", wb.Digest[:12]+"..", "", "exact", v)
			var diffs []string
			for _, name := range exactCounts {
				if wa.Counts[name] != wb.Counts[name] {
					diffs = append(diffs, fmt.Sprintf("%s %d vs %d", name, wa.Counts[name], wb.Counts[name]))
				}
			}
			if len(diffs) > 0 {
				fmt.Fprintf(w, "   counts differ: %s\n", strings.Join(diffs, ", "))
			}
		}
	}
	return worse
}

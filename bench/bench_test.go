package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {18500, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var vs []float64
	for i := 1; i <= 200; i++ {
		vs = append(vs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

// The acceptance spread is defined with Python's statistics.quantiles(n=4);
// these are its outputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 4, 8}, [3]float64{1.25, 3, 7}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{req: 1, parent: 0, name: spanRequest, start: 0, end: 100},
		{req: 1, parent: 1, name: spanExplorer, start: 10, end: 40},
		{req: 1, parent: 1, name: spanGuardServe, start: 50, end: 90},
		{req: 1, parent: 3, name: spanSelect, start: 55, end: 70},
		{req: 1, parent: 3, name: spanRough, start: 70, end: 75},
		{req: 1, parent: 3, name: spanRough, start: 75, end: 80},
	}
	want := []int64{30, 30, 15, 15, 5, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i+1, spanNames[spans[i].name], got[i], want[i])
		}
	}
	st := stageStats(spans)
	if st[spanRough].count != 2 || st[spanRough].dur != 10 || st[spanGuardServe].self != 15 {
		t.Errorf("stage stats: rough %+v, guard.serve %+v", st[spanRough], st[spanGuardServe])
	}
	// The parts sum to the whole: every nanosecond of the root is some
	// span's self time.
	var sum int64
	for _, s := range got {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestVerdict(t *testing.T) {
	qps := metricDef{name: "qps", higher: true, bound: 0.07}
	lat := metricDef{name: "lat_p50_us", bound: 0.07}
	exact := metricDef{name: "learned_ratio", higher: true, exact: true}
	sum := func(vs ...float64) metricSummary {
		q1, med, q3 := quartiles(vs)
		return metricSummary{Median: med, Q1: q1, Q3: q3, Values: vs}
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b metricSummary
		want string
	}{
		{"within bound", qps, sum(1000, 1005, 1010), sum(960, 965, 970), "ok"},
		{"throughput fell 10%", qps, sum(1000, 1005, 1010), sum(900, 905, 910), "worse"},
		{"latency rose 10%", lat, sum(600, 602, 604), sum(660, 662, 664), "worse"},
		{"latency fell", lat, sum(600, 602, 604), sum(500, 502, 504), "ok"},
		{"spread wider than bound", qps, sum(800, 1000, 1200), sum(850, 950, 1150), "unresolved"},
		{"wide spread but every run better", qps, sum(800, 1000, 1200), sum(1300, 1500, 1700), "ok"},
		{"exact equal", exact, sum(0.86, 0.86, 0.86), sum(0.86, 0.86, 0.86), "ok"},
		{"exact moved", exact, sum(0.86, 0.86, 0.86), sum(0.87, 0.87, 0.87), "worse"},
	} {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is written by hand; the harness's tables are what it prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the harness runs %q", i, w.Name, workloadNames[i])
		}
	}
	var driver []metricDef
	for _, def := range endToEnd {
		if def.driver {
			driver = append(driver, def)
		}
	}
	if len(doc.EndToEnd) != len(driver) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness prints %d", len(doc.EndToEnd), len(driver))
	}
	for i, m := range doc.EndToEnd {
		if d := driver[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

func smokeOptions(t *testing.T) options {
	return options{sz: smokeSizes, seed: 42, setups: 1, outDir: t.TempDir()}
}

// The ROADMAP's "parts sum to the whole" assertion: on recurring, the staged
// replay's stage self-times account for the untraced request latency.
func TestStageSumMatchesUntracedLatency(t *testing.T) {
	o := smokeOptions(t)
	o.sz.recurringPasses = 16 // 8 passes each way: enough requests that one scheduler hiccup is not 15%
	res, err := runTraced(context.Background(), "recurring", o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced recurring incorrect: %v", res.Problems)
	}
	if c := res.Layer["loam.trace_coverage"]; c < 0.85 || c > 1.15 {
		t.Errorf("loam.trace_coverage = %.3f, want within [0.85, 1.15]", c)
	}
	if e, p := res.Layer["explorer.share"], res.Layer["predictor.share"]; e < 0.5 || p > 0.1 {
		t.Errorf("recurring budget: explorer.share %.3f, predictor.share %.3f; want exploration dominant and scoring marginal", e, p)
	}
	for _, def := range perLayer {
		if v, ok := res.Layer[def.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s missing or not finite: %v", def.name, v)
		}
	}
}

// The staged server — timing scorer shim, harness-built guard, staged fleet
// backend — must choose exactly the plans the deployment's own path chooses;
// runTraced compares the two unit by unit.
func TestStagedReplayChoosesTheSamePlans(t *testing.T) {
	for _, name := range []string{"dayroll", "fleet", "loop"} {
		res, err := runTraced(context.Background(), name, smokeOptions(t))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("traced %s: %d failed, problems %v", name, res.Failed, res.Problems)
		}
	}
}

// fleet (two goroutines, admission, budget) and loop (lifecycle, journal) are
// the workloads whose outcomes could depend on scheduling or wall time;
// recurring's own end-of-run check already compares its passes.
func TestSameSeedRunsAgreeExactly(t *testing.T) {
	for _, name := range []string{"fleet", "loop"} {
		var rs [2]*runResult
		for i := range rs {
			r, err := runUntraced(context.Background(), name, smokeOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("%s run %d incorrect: %v", name, i, r.Problems)
			}
			rs[i] = r
		}
		a, b := rs[0], rs[1]
		if a.Digest != b.Digest {
			t.Errorf("%s: choices_digest %s vs %s", name, a.Digest, b.Digest)
		}
		for _, m := range []string{"fail_ratio", "learned_ratio", "exec_cpu_cost_mean"} {
			if a.EndToEnd[m] != b.EndToEnd[m] {
				t.Errorf("%s: %s %v vs %v", name, m, a.EndToEnd[m], b.EndToEnd[m])
			}
		}
		if !sameCounts(a.Counts, b.Counts) {
			t.Errorf("%s: counts %v vs %v", name, a.Counts, b.Counts)
		}
	}
}

func TestSeedChangesTraffic(t *testing.T) {
	o := smokeOptions(t)
	a, err := runUntraced(context.Background(), "dayroll", o)
	if err != nil {
		t.Fatal(err)
	}
	o.seed = 7
	b, err := runUntraced(context.Background(), "dayroll", o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Errorf("seeds 42 and 7 served the same choices (%s): -seed does not reach the traffic", a.Digest)
	}
	if b.Failed != 0 || !b.Correct {
		t.Errorf("seed 7: %d failed, problems %v", b.Failed, b.Problems)
	}
}

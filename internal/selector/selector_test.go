package selector

import (
	"math"
	"testing"

	"loam/internal/exec"
	"loam/internal/history"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/warehouse"
)

func entryOn(day int, tables ...string) history.Entry {
	root := &plan.Node{Op: plan.OpSelect}
	for _, tb := range tables {
		root.Children = append(root.Children, &plan.Node{Op: plan.OpTableScan, Table: tb, PartitionsRead: 1})
	}
	return history.Entry{
		Query:  &query.Query{Day: day, Tables: tables},
		Record: &exec.Record{Day: day, Plan: &plan.Plan{Root: root}, CPUCost: 100},
	}
}

func projectWithLifespans(spans map[string]int) *warehouse.Project {
	p := &warehouse.Project{}
	for id, span := range spans {
		p.Tables = append(p.Tables, &warehouse.Table{ID: id, LifespanDays: span, Rows: 10})
	}
	return p
}

func TestComputeStatsMetrics(t *testing.T) {
	p := projectWithLifespans(map[string]int{"stable": 100, "temp": 5})
	var entries []history.Entry
	// Day 0: 2 queries; day 1: 4 queries (growth ratio 2).
	entries = append(entries, entryOn(0, "stable"), entryOn(0, "temp"))
	for i := 0; i < 4; i++ {
		entries = append(entries, entryOn(1, "stable"))
	}
	s := ComputeStats(entries, p, 30)
	if s.Days != 2 || s.TotalQueries != 6 {
		t.Fatalf("days %d total %d", s.Days, s.TotalQueries)
	}
	if s.QueriesPerDay != 3 {
		t.Fatalf("n_query %g", s.QueriesPerDay)
	}
	if s.IncRatio != 2 {
		t.Fatalf("inc ratio %g", s.IncRatio)
	}
	// 5 of 6 queries touch only the stable table.
	if math.Abs(s.StableRatio-5.0/6) > 1e-12 {
		t.Fatalf("stable ratio %g", s.StableRatio)
	}
}

func TestComputeStatsSingleDay(t *testing.T) {
	p := projectWithLifespans(map[string]int{"a": 100})
	s := ComputeStats([]history.Entry{entryOn(0, "a")}, p, 30)
	if s.IncRatio != 1 {
		t.Fatalf("single-day inc ratio %g", s.IncRatio)
	}
}

func TestFilterRules(t *testing.T) {
	cfg := FilterConfig{MinQueriesPerDay: 5, MinIncRatio: 0.9, MinStableRatio: 0.5, StableLifespanDays: 30}
	pass, failed := cfg.Pass(WorkloadStats{QueriesPerDay: 10, IncRatio: 1, StableRatio: 0.8})
	if !pass || len(failed) != 0 {
		t.Fatalf("should pass, failed: %v", failed)
	}
	_, failed = cfg.Pass(WorkloadStats{QueriesPerDay: 1, IncRatio: 0.5, StableRatio: 0.1})
	if len(failed) != 3 {
		t.Fatalf("should fail all rules, got %v", failed)
	}
	_, failed = cfg.Pass(WorkloadStats{QueriesPerDay: 10, IncRatio: 1, StableRatio: 0.1})
	if len(failed) != 1 || failed[0] != "R3:stable_table_ratio" {
		t.Fatalf("R3 failure expected, got %v", failed)
	}
}

func TestPaperFilterConfig(t *testing.T) {
	cfg := PaperFilterConfig()
	if cfg.MinQueriesPerDay != 2000 {
		t.Fatalf("N0 %g", cfg.MinQueriesPerDay)
	}
	// r satisfies N0 * r^30 >= 10000.
	if cfg.MinQueriesPerDay*math.Pow(cfg.MinIncRatio, 30) < 10_000-1 {
		t.Fatalf("r=%g too small", cfg.MinIncRatio)
	}
	if cfg.MinStableRatio != 0.2 || cfg.StableLifespanDays != 30 {
		t.Fatal("R3 thresholds wrong")
	}
}

func TestRankerLearnsMonotoneSignal(t *testing.T) {
	rng := simrand.New(7)
	var samples []RankerSample
	for i := 0; i < 400; i++ {
		f := make([]float64, 8)
		for j := range f {
			f[j] = rng.Uniform(0, 1)
		}
		samples = append(samples, RankerSample{Features: f, Improvement: 0.8 * f[2]})
	}
	r := TrainRanker(samples)
	lo := make([]float64, 8)
	hi := make([]float64, 8)
	for j := range lo {
		lo[j], hi[j] = 0.5, 0.5
	}
	lo[2], hi[2] = 0.1, 0.9
	if r.Estimate(hi) <= r.Estimate(lo) {
		t.Fatalf("ranker did not learn signal: %g vs %g", r.Estimate(hi), r.Estimate(lo))
	}
}

func TestRankerEmpty(t *testing.T) {
	r := TrainRanker(nil)
	if r.Estimate([]float64{1, 2}) != 0 {
		t.Fatal("empty ranker should return 0")
	}
	if r.ScoreWorkload(nil) != 0 {
		t.Fatal("empty workload score should be 0")
	}
}

func TestScoreWorkloadAverages(t *testing.T) {
	rng := simrand.New(8)
	var samples []RankerSample
	for i := 0; i < 200; i++ {
		f := []float64{rng.Uniform(0, 1)}
		samples = append(samples, RankerSample{Features: f, Improvement: f[0]})
	}
	r := TrainRanker(samples)
	feats := [][]float64{{0.2}, {0.8}}
	score := r.ScoreWorkload(feats)
	if math.Abs(score-(r.Estimate(feats[0])+r.Estimate(feats[1]))/2) > 1e-12 {
		t.Fatal("score is not the average")
	}
}

func TestRankProjectsOrdering(t *testing.T) {
	scores := map[string]float64{"a": 0.1, "b": 0.9, "c": 0.5}
	ranked := RankProjects(scores)
	if ranked[0] != "b" || ranked[1] != "c" || ranked[2] != "a" {
		t.Fatalf("ranked %v", ranked)
	}
	// Deterministic tie-breaking by name.
	ties := map[string]float64{"z": 1, "a": 1}
	r2 := RankProjects(ties)
	if r2[0] != "a" {
		t.Fatalf("tie break %v", r2)
	}
}

func TestTopN(t *testing.T) {
	ranked := []string{"a", "b", "c"}
	if got := TopN(ranked, 2); len(got) != 2 || got[0] != "a" {
		t.Fatalf("top2 %v", got)
	}
	if got := TopN(ranked, 10); len(got) != 3 {
		t.Fatalf("overlong topN %v", got)
	}
	// Copy semantics: mutating the result leaves the input alone.
	got := TopN(ranked, 3)
	got[0] = "x"
	if ranked[0] != "a" {
		t.Fatal("TopN aliases input")
	}
}

func TestFeaturesWrapper(t *testing.T) {
	p := &plan.Plan{Root: &plan.Node{Op: plan.OpTableScan, Table: "t", PartitionsRead: 1}}
	v := Features(p, 100, func(string) float64 { return 50 })
	if len(v) == 0 {
		t.Fatal("no features")
	}
}

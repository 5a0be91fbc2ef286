// Package selector implements LOAM's two-stage project selection (§6):
// a rule-based Filter that excludes projects posing training challenges
// (App. D.1, rules R1–R3), and a learned Ranker — an XGBoost regressor over
// project-agnostic default-plan features (App. D.2) — that prioritizes the
// remaining projects by estimated improvement space D(M_d).
package selector

import (
	"math"
	"sort"

	"loam/internal/encoding"
	"loam/internal/history"
	"loam/internal/plan"
	"loam/internal/warehouse"
	"loam/internal/xgb"
)

// FilterConfig holds the rule thresholds of App. D.1.
type FilterConfig struct {
	// MinQueriesPerDay is R1's N0: minimum average daily query volume.
	MinQueriesPerDay float64
	// MinIncRatio is R2's r: minimum day-over-day query growth ratio.
	MinIncRatio float64
	// MinStableRatio is R3's θ: minimum fraction of queries touching only
	// long-lived tables.
	MinStableRatio float64
	// StableLifespanDays is R3's n: the lifespan threshold for a table to
	// count as long-lived.
	StableLifespanDays int
}

// PaperFilterConfig returns the paper's production thresholds: N0 = 2000,
// r the minimum ratio with N0·r^30 ≥ 10000, θ = 0.2, n = 30.
func PaperFilterConfig() FilterConfig {
	return FilterConfig{
		MinQueriesPerDay:   2000,
		MinIncRatio:        math.Pow(10000.0/2000.0, 1.0/30.0),
		MinStableRatio:     0.2,
		StableLifespanDays: 30,
	}
}

// ScaledFilterConfig returns thresholds proportional to a simulated
// workload's scale: the rules keep their structure, only N0 shrinks.
func ScaledFilterConfig(minPerDay float64) FilterConfig {
	c := PaperFilterConfig()
	c.MinQueriesPerDay = minPerDay
	c.MinIncRatio = math.Pow(5, 1.0/30.0) * 0.92 // mildly tolerant of day noise
	return c
}

// WorkloadStats are the App.-D.1 metrics computed over a sampled workload.
type WorkloadStats struct {
	Days          int
	TotalQueries  int
	QueriesPerDay float64 // n_query
	IncRatio      float64 // query_inc_ratio
	StableRatio   float64 // stable_table_ratio
}

// ComputeStats derives the filter metrics from a project's sampled workload.
func ComputeStats(entries []history.Entry, p *warehouse.Project, stableLifespanDays int) WorkloadStats {
	s := WorkloadStats{TotalQueries: len(entries)}
	byDay := map[int]int{}
	stable := 0
	for _, e := range entries {
		byDay[e.Record.Day]++
		allStable := true
		for _, tb := range e.Query.Tables {
			t := p.Table(tb)
			if t == nil || t.LifespanDays <= stableLifespanDays {
				allStable = false
				break
			}
		}
		if allStable {
			stable++
		}
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	sort.Ints(days)
	s.Days = len(days)
	if s.Days > 0 {
		s.QueriesPerDay = float64(s.TotalQueries) / float64(s.Days)
	}
	if s.Days > 1 {
		ratio := 0.0
		for i := 1; i < len(days); i++ {
			prev := byDay[days[i-1]]
			if prev > 0 {
				ratio += float64(byDay[days[i]]) / float64(prev)
			}
		}
		s.IncRatio = ratio / float64(len(days)-1)
	} else {
		s.IncRatio = 1
	}
	if s.TotalQueries > 0 {
		s.StableRatio = float64(stable) / float64(s.TotalQueries)
	}
	return s
}

// Pass evaluates rules R1–R3, returning whether the project passes and the
// names of any failed rules.
func (c FilterConfig) Pass(s WorkloadStats) (bool, []string) {
	var failed []string
	if s.QueriesPerDay < c.MinQueriesPerDay {
		failed = append(failed, "R1:n_query")
	}
	if s.IncRatio < c.MinIncRatio {
		failed = append(failed, "R2:query_inc_ratio")
	}
	if s.StableRatio < c.MinStableRatio {
		failed = append(failed, "R3:stable_table_ratio")
	}
	return len(failed) == 0, failed
}

// RankerSample is one (default-plan features, improvement space) training
// pair. Features come from encoding.RankerFeatures and are deliberately
// project-agnostic so the Ranker transfers across projects.
type RankerSample struct {
	Features    []float64
	Improvement float64 // D(M_d), relative to oracle cost
}

// Ranker estimates the improvement space of queries from their default
// plans.
type Ranker struct {
	model *xgb.Model
}

// RankerConfig returns the boosting configuration used for the Ranker — a
// deliberately lightweight model (§6).
func RankerConfig() xgb.Config {
	return xgb.Config{
		Trees:          40,
		MaxDepth:       4,
		LearningRate:   0.2,
		Lambda:         1,
		MinChildWeight: 1,
		Bins:           24,
	}
}

// TrainRanker fits the Ranker on samples drawn from multiple projects.
func TrainRanker(samples []RankerSample) *Ranker {
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		x[i] = s.Features
		y[i] = s.Improvement
	}
	if len(x) == 0 {
		return &Ranker{}
	}
	return &Ranker{model: xgb.Train(RankerConfig(), x, y)}
}

// Estimate returns the predicted improvement space for one default plan's
// features.
func (r *Ranker) Estimate(features []float64) float64 {
	if r.model == nil {
		return 0
	}
	return r.model.Predict(features)
}

// ScoreWorkload averages the estimated improvement space across a sampled
// workload's default plans.
func (r *Ranker) ScoreWorkload(features [][]float64) float64 {
	if len(features) == 0 {
		return 0
	}
	total := 0.0
	for _, f := range features {
		total += r.Estimate(f)
	}
	return total / float64(len(features))
}

// Features builds the Ranker input for one default plan with its observed
// cost — a convenience wrapper over encoding.RankerFeatures.
func Features(p *plan.Plan, cost float64, rows func(string) float64) []float64 {
	return encoding.RankerFeatures(p, cost, rows)
}

// RankProjects orders project names by descending workload score.
func RankProjects(scores map[string]float64) []string {
	names := make([]string, 0, len(scores))
	for n := range scores {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if scores[names[i]] != scores[names[j]] {
			return scores[names[i]] > scores[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// TopN returns the first n names of a ranked list (fewer when the list is
// shorter) — the paper's deployment rule.
func TopN(ranked []string, n int) []string {
	if n > len(ranked) {
		n = len(ranked)
	}
	return append([]string(nil), ranked[:n]...)
}

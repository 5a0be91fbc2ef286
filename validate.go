package loam

import (
	"fmt"
	"slices"

	"loam/internal/exec"
	"loam/internal/floatsafe"
	"loam/internal/history"
	"loam/internal/plan"
	"loam/internal/selector"
	"loam/internal/theory"
)

// ValidationConfig controls the pre-deployment evaluation gate (§3): before
// a trained predictor serves production queries, it is evaluated on a
// sampled set of unseen test queries whose candidates are executed in the
// flighting environment.
type ValidationConfig struct {
	// SampleQueries is how many test queries to evaluate (0 = all).
	SampleQueries int
	// Reps is how many flighting executions measure each candidate.
	Reps int
	// MaxRegression is the acceptance threshold: the deployment is rejected
	// if the predictor's selected plans cost more than (1+MaxRegression)×
	// the native optimizer's plans on the validation sample.
	MaxRegression float64
}

// DefaultValidationConfig accepts deployments that do not regress the
// native optimizer by more than 5% on the validation sample.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{SampleQueries: 20, Reps: 3, MaxRegression: 0.05}
}

// ValidationResult is the outcome of the pre-deployment gate, and the raw
// material for the project selector's Ranker training pairs (§6).
type ValidationResult struct {
	Queries int
	// NativeCost and SelectedCost are average measured costs of the default
	// plans and the predictor-selected plans.
	NativeCost   float64
	SelectedCost float64
	// Gain is 1 − SelectedCost/NativeCost.
	Gain float64
	// ImprovementSpace is the mean relative D(M_d) measured on the sample —
	// the Ranker's regression target.
	ImprovementSpace float64
	// Accepted reports whether the deployment passes the gate.
	Accepted bool
	// RankerSamples are (default-plan features, improvement) pairs derived
	// from the validation run, used to (re)train the fleet-level Ranker.
	RankerSamples []selector.RankerSample
}

// Validate runs the §3 evaluation gate: the deployment's unseen test queries
// are measured (ProjectSim.SampleWorkload) on a fork of the project's
// executor (exec.Executor.Fork, purpose "flight/validate"), and the
// predictor's selections are compared against the native optimizer's
// defaults. It logs nothing to the project history and leaves the serving
// cluster and executor as it found them.
func (d *Deployment) Validate(cfg ValidationConfig) (*ValidationResult, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	if cfg.MaxRegression == 0 {
		cfg.MaxRegression = 0.05
	}
	test := d.TestSet
	if len(test) == 0 {
		return nil, fmt.Errorf("validate %s: no test queries", d.ProjectSim.Config.Name)
	}
	if cfg.SampleQueries > 0 && len(test) > cfg.SampleQueries {
		test = test[:cfg.SampleQueries]
	}

	ps := d.ProjectSim
	sample := ps.SampleWorkload(ps.Executor.Fork("flight/validate"), test, 1, cfg.Reps)
	res := &ValidationResult{
		Queries:          len(sample.Queries),
		ImprovementSpace: sample.Improvement,
		RankerSamples:    sample.RankerSamples,
	}
	for i := range sample.Queries {
		m := &sample.Queries[i]
		// Predictor's choice under the deployment's strategy — scored raw
		// (guard.ScoreLearnedKeyed), not guarded: validation measures the
		// model itself, so a failure here must surface instead of degrading
		// to a fallback plan. Keyed scoring shares the plan cache with
		// serving; cached and uncached scores are bit-identical.
		envs, envKey := d.envSource()
		chosenPlan, _, err := d.grd.ScoreLearnedKeyed(m.Cands, envs, envKey)
		if err != nil {
			return nil, fmt.Errorf("validate %s: %w", ps.Config.Name, err)
		}
		chosen := max(slices.Index(m.Cands, chosenPlan), 0)
		res.NativeCost += m.Means[0]
		res.SelectedCost += m.Means[chosen]
	}
	if res.Queries > 0 {
		res.NativeCost /= float64(res.Queries)
		res.SelectedCost /= float64(res.Queries)
	}
	if res.NativeCost > 0 {
		res.Gain = 1 - res.SelectedCost/res.NativeCost
	}
	res.Accepted = floatsafe.LessEq(res.SelectedCost, res.NativeCost*(1+cfg.MaxRegression))
	return res, nil
}

// Measured is a logged query flighted the one way a logged query is
// flighted (ProjectSim.MeasureQuery): the explorer's candidates for it, and
// each candidate's flighted costs, their mean and the log-normal fitted to
// them (App. E.1).
type Measured struct {
	Entry history.Entry
	// Cands are the explorer's candidates; index 0 is the default plan.
	Cands []*plan.Plan
	// Costs[i] are the flighted costs of candidate i, one per rep.
	Costs [][]float64
	// Means[i] is the mean of Costs[i].
	Means []float64
	// Dists[i] is the log-normal fitted to Costs[i]; the zero LogNormal
	// marks a failed fit.
	Dists []theory.LogNormal
}

// MeasureQuery flights a logged query: the explorer's candidates for it, on
// the statistics of the day it ran, each executed reps times on flight — a
// fork of the project's executor (exec.Executor.Fork) — in candidate order.
// It is the measurement the §3 gate, the Fig. 6 evaluation and the
// improvement space of §6 all take.
func (ps *ProjectSim) MeasureQuery(flight *exec.Executor, e history.Entry, reps int) Measured {
	cands := ps.Explorer(e.Record.Day).Candidates(e.Query)
	m := Measured{
		Entry: e,
		Cands: cands,
		Costs: make([][]float64, len(cands)),
		Means: make([]float64, len(cands)),
		Dists: make([]theory.LogNormal, len(cands)),
	}
	opt := ps.ExecOptions(e.Query)
	for i, c := range cands {
		costs := flight.Flight(c, e.Record.Day, reps, opt)
		m.Costs[i] = costs
		m.Means[i], _ = theory.Moments(costs)
		if d, err := theory.FitLogNormal(costs); err == nil {
			m.Dists[i] = d
		}
	}
	return m
}

// OracleCost returns the expected cost of the oracle model over the
// query's candidates.
func (m *Measured) OracleCost() float64 { return theory.ExpectedMin(m.Dists) }

// BestAchievableIdx returns M_b's choice: the candidate minimizing expected
// cost.
func (m *Measured) BestAchievableIdx() int { return theory.BestAchievable(m.Dists) }

// WorkloadSample is a stride-sampled slice of logged queries, each measured
// by MeasureQuery, with the §6 Ranker's training pairs derived from them.
type WorkloadSample struct {
	Queries []Measured
	// RankerSamples holds one pair per query whose oracle cost is positive,
	// in query order.
	RankerSamples []selector.RankerSample
	// Improvement is the mean relative D(M_d) over RankerSamples (0 when
	// there are none).
	Improvement float64
}

// SampleWorkload measures entries[0], entries[stride], entries[2·stride], …
// on flight, in that order, each candidate reps times.
func (ps *ProjectSim) SampleWorkload(flight *exec.Executor, entries []history.Entry, stride, reps int) WorkloadSample {
	var s WorkloadSample
	sum := 0.0
	for i := 0; i < len(entries); i += stride {
		m := ps.MeasureQuery(flight, entries[i], reps)
		s.Queries = append(s.Queries, m)
		if rs, ok := ps.rankerSample(&m); ok {
			s.RankerSamples = append(s.RankerSamples, rs)
			sum += rs.Improvement
		}
	}
	if n := len(s.RankerSamples); n > 0 {
		s.Improvement = sum / float64(n)
	}
	return s
}

// rankerSample is a measured query's training pair for the §6 Ranker (App.
// E.1): the default plan's observable features, and the improvement space
// D(M_d) relative to the oracle. ok is false when the oracle cost is not
// positive.
func (ps *ProjectSim) rankerSample(m *Measured) (s selector.RankerSample, ok bool) {
	oracle := m.OracleCost()
	if oracle <= 0 {
		return s, false
	}
	e := m.Entry
	rows := func(tableID string) float64 {
		if t := ps.Project.Table(tableID); t != nil {
			return float64(t.RowsAt(e.Record.Day))
		}
		return 0
	}
	return selector.RankerSample{
		Features:    selector.Features(e.Record.Plan, e.Record.CPUCost, rows),
		Improvement: theory.ExpectedDeviance(m.Dists, 0) / oracle,
	}, true
}

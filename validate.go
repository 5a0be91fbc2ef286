package loam

import (
	"fmt"

	"loam/internal/floatsafe"
	"loam/internal/history"
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
// are steered, every candidate is executed in the flighting environment — a
// fork of the project's executor (exec.Executor.Fork, purpose
// "flight/validate") — and the predictor's selections are compared against
// the native optimizer's defaults. It logs nothing to the project history and
// leaves the serving cluster and executor as it found them.
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
	flight := ps.Executor.Fork("flight/validate")
	res := &ValidationResult{}
	var impSum float64
	var impCount int
	for _, e := range test {
		cands := ps.Explorer(e.Record.Day).Candidates(e.Query)
		opt := ps.ExecOptions(e.Query)

		// Flighting measurements per candidate.
		means := make([]float64, len(cands))
		dists := make([]theory.LogNormal, len(cands))
		for i, c := range cands {
			costs := flight.Flight(c, e.Record.Day, cfg.Reps, opt)
			means[i], _ = theory.Moments(costs)
			if fit, err := theory.FitLogNormal(costs); err == nil {
				dists[i] = fit
			}
		}

		// Predictor's choice under the deployment's strategy — scored raw
		// (guard.ScoreLearnedKeyed), not guarded: validation measures the
		// model itself, so a failure here must surface instead of degrading
		// to a fallback plan. Keyed scoring shares the plan cache with
		// serving; cached and uncached scores are bit-identical.
		envs, envKey := d.envSource()
		chosenPlan, _, err := d.grd.ScoreLearnedKeyed(cands, envs, envKey)
		if err != nil {
			return nil, fmt.Errorf("validate %s: %w", ps.Config.Name, err)
		}
		chosen := 0
		for i := range cands {
			if cands[i] == chosenPlan {
				chosen = i
				break
			}
		}
		res.Queries++
		res.NativeCost += means[0]
		res.SelectedCost += means[chosen]

		if s, ok := ps.RankerSample(e, dists); ok {
			impSum += s.Improvement
			impCount++
			res.RankerSamples = append(res.RankerSamples, s)
		}
	}
	if res.Queries > 0 {
		res.NativeCost /= float64(res.Queries)
		res.SelectedCost /= float64(res.Queries)
	}
	if res.NativeCost > 0 {
		res.Gain = 1 - res.SelectedCost/res.NativeCost
	}
	if impCount > 0 {
		res.ImprovementSpace = impSum / float64(impCount)
	}
	res.Accepted = floatsafe.LessEq(res.SelectedCost, res.NativeCost*(1+cfg.MaxRegression))
	return res, nil
}

// RankerSample is a logged query's training pair for the §6 Ranker (App.
// E.1): the default plan's observable features, and the improvement space
// D(M_d) relative to the oracle, integrated over dists — the fitted cost
// distributions of the query's candidates, default first. ok is false when
// the oracle cost is not positive.
func (ps *ProjectSim) RankerSample(e history.Entry, dists []theory.LogNormal) (s selector.RankerSample, ok bool) {
	oracle := theory.ExpectedMin(dists)
	if oracle <= 0 {
		return s, false
	}
	rows := func(tableID string) float64 {
		if t := ps.Project.Table(tableID); t != nil {
			return float64(t.RowsAt(e.Record.Day))
		}
		return 0
	}
	return selector.RankerSample{
		Features:    selector.Features(e.Record.Plan, e.Record.CPUCost, rows),
		Improvement: theory.ExpectedDeviance(dists, 0) / oracle,
	}, true
}

package experiments

import (
	"fmt"
	"io"

	"loam/internal/predictor"
)

// Fig10Result reproduces Fig. 10: query-optimization performance of the
// plan-cost-inference strategies of §5 — LOAM (average-case machine-level
// environment), LOAM-CE (expected cluster-wide environment over 24 h),
// LOAM-CB (cluster-wide environment at optimization time), and LOAM-NL (no
// environment features at all) — in E2E CPU cost and relative deviance, with
// the best-achievable model's deviance as the bound.
type Fig10Result struct {
	Projects []Fig10Project
}

// Fig10Project is one project's strategy comparison.
type Fig10Project struct {
	Project string
	// Cost and RelDev are keyed by strategy label.
	Cost   map[string]float64
	RelDev map[string]float64
	// BestAchievableRelDev is D(M_b)/oracle (≈10% in the paper).
	BestAchievableRelDev float64
	Native               float64
}

// Fig10 evaluates the four inference strategies on every project.
func (e *Env) Fig10(f6 *Fig6Result) (*Fig10Result, error) {
	res := &Fig10Result{}
	for _, pr := range f6.Projects {
		pe := e.Eval(pr.Project)
		fp := Fig10Project{
			Project:              pr.Project,
			Cost:                 map[string]float64{},
			RelDev:               map[string]float64{},
			BestAchievableRelDev: pr.BestAchievableDeviance,
			Native:               pr.Native,
		}

		// LOAM / LOAM-CE / LOAM-CB share one trained model and differ only
		// in the environment vector supplied at inference. CE and CB read
		// the cluster-wide observations captured at each query's
		// optimization moment; LOAM uses the historical machine-level mean.
		dep, err := e.Deployment(pr.Project, LOAMVariant())
		if err != nil {
			return nil, err
		}
		for _, s := range []predictor.Strategy{
			predictor.StrategyMeanEnv,
			predictor.StrategyClusterExpected,
			predictor.StrategyClusterCurrent,
		} {
			m := evalMethod(pe, s.String(), pickWith(dep.Predictor(), s))
			fp.Cost[s.String()] = m.AvgCost
			fp.RelDev[s.String()] = m.RelDeviance
		}

		// LOAM-NL is a separate model trained without environment features.
		nl, err := e.Deployment(pr.Project, Variant{Adapt: true, UseEnv: false})
		if err != nil {
			return nil, err
		}
		pick := pickWith(nl.Predictor(), predictor.StrategyNoEnv)
		m := evalMethod(pe, "LOAM-NL", pick)
		fp.Cost["LOAM-NL"] = m.AvgCost
		fp.RelDev["LOAM-NL"] = m.RelDeviance

		res.Projects = append(res.Projects, fp)
	}
	return res, nil
}

// Strategies lists the result columns in render order.
func (r *Fig10Result) Strategies() []string {
	return []string{"LOAM", "LOAM-CE", "LOAM-CB", "LOAM-NL"}
}

// Render prints the two Fig.-10 panels.
func (r *Fig10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 10 — Query optimization performance w.r.t. cost inference methods")
	fmt.Fprintln(w, "(a) E2E CPU cost")
	fmt.Fprintf(w, "%-10s %12s", "project", "MaxCompute")
	for _, s := range r.Strategies() {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for _, fp := range r.Projects {
		fmt.Fprintf(w, "%-10s %12.0f", fp.Project, fp.Native)
		for _, s := range r.Strategies() {
			fmt.Fprintf(w, " %12.0f", fp.Cost[s])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(b) Relative deviance (vs oracle)")
	fmt.Fprintf(w, "%-10s %12s", "project", "BestAchiev")
	for _, s := range r.Strategies() {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for _, fp := range r.Projects {
		fmt.Fprintf(w, "%-10s %11.1f%%", fp.Project, fp.BestAchievableRelDev*100)
		for _, s := range r.Strategies() {
			fmt.Fprintf(w, " %11.1f%%", fp.RelDev[s]*100)
		}
		fmt.Fprintln(w)
	}
}

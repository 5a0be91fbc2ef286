package experiments

import (
	"fmt"
	"io"

	"loam/internal/floatsafe"
)

// Fig8Result reproduces Fig. 8: LOAM's end-to-end performance as a function
// of the training-set size, against the native optimizer and the
// best-achievable bound.
type Fig8Result struct {
	Projects []Fig8Project
}

// Fig8Project is one project's sweep.
type Fig8Project struct {
	Project        string
	Native         float64
	BestAchievable float64
	// Sizes are the training-set sizes swept; Costs[i] is LOAM's average
	// cost when trained on Sizes[i] queries.
	Sizes []int
	Costs []float64
}

// Fig8 sweeps the training-set size for each project. Fractions of the full
// training set stand in for the paper's 1k→MAX absolute sizes, scaling with
// the simulated workload.
func (e *Env) Fig8(f6 *Fig6Result) (*Fig8Result, error) {
	fracs := []float64{0.125, 0.25, 0.5, 0.75, 1.0}
	res := &Fig8Result{}
	for _, pr := range f6.Projects {
		pe := e.Eval(pr.Project)
		fp := Fig8Project{
			Project:        pr.Project,
			Native:         pr.Native,
			BestAchievable: pr.BestAchievable,
		}
		for _, f := range fracs {
			size := int(f * float64(pe.TrainSize))
			if size < 10 {
				size = 10
			}
			var (
				m   MethodResult
				err error
			)
			if f == 1.0 {
				// Full size: reuse the Fig.-6 LOAM run.
				if lm := pr.Method("LOAM"); lm != nil {
					m = *lm
				}
			} else {
				dep, derr := e.Deployment(pr.Project, Variant{
					Adapt: true, UseEnv: true, MaxTrain: size,
				})
				if derr != nil {
					err = derr
				} else {
					m = evalModel(pe, "LOAM", dep.Predictor())
				}
			}
			if err != nil {
				return nil, err
			}
			fp.Sizes = append(fp.Sizes, size)
			fp.Costs = append(fp.Costs, m.AvgCost)
		}
		res.Projects = append(res.Projects, fp)
	}
	return res, nil
}

// Render prints the sweep series.
func (r *Fig8Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 8 — LOAM performance w.r.t. training data size")
	for _, fp := range r.Projects {
		fmt.Fprintf(w, "%-10s native=%.0f bestAchievable=%.0f\n", fp.Project, fp.Native, fp.BestAchievable)
		for i, size := range fp.Sizes {
			marker := ""
			if floatsafe.Less(fp.Costs[i], fp.Native) {
				marker = "  <- beats native"
			}
			fmt.Fprintf(w, "  train=%5d  avgCost=%12.0f%s\n", size, fp.Costs[i], marker)
		}
	}
}

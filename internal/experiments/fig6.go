package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"loam/internal/floatsafe"
	"loam/internal/predictor"
	"loam/internal/theory"
	"loam/internal/walltime"
)

// MethodResult is one learned optimizer's measured behavior on one project.
type MethodResult struct {
	Name string
	// AvgCost is the mean E2E CPU cost of the plans the method selected.
	AvgCost float64
	// PerQuery[i] is the selected plan's measured cost on test query i.
	PerQuery []float64
	// ChosenIdx[i] is the candidate index the method chose.
	ChosenIdx []int
	// RelDeviance is the mean relative expected deviance of the method's
	// choices (§7.2.5).
	RelDeviance float64

	TrainSeconds    float64
	ModelBytes      int
	AvgInferSeconds float64
}

// ProjectResult aggregates one project's end-to-end evaluation.
type ProjectResult struct {
	Project   string
	TrainSize int
	TestSize  int

	// Native is the native optimizer's average cost (default plans).
	Native float64
	// NativePerQuery are the default plan costs per test query.
	NativePerQuery []float64
	// Oracle is the oracle model's expected average cost.
	Oracle float64
	// BestAchievable is M_b's average cost (Theorem 1's bound).
	BestAchievable float64
	// ImprovementSpace is the mean relative D(M_d) (§6).
	ImprovementSpace float64
	// BestAchievableDeviance is the mean relative D(M_b).
	BestAchievableDeviance float64

	Methods []MethodResult
}

// Fig6Result reproduces Fig. 6 (average CPU cost of learned optimizers and
// MaxCompute), and carries everything Figs. 7, 9 and 11 reuse.
type Fig6Result struct {
	Projects []ProjectResult
}

// evalMethod runs a selection rule over a project's measured queries.
func evalMethod(pe *ProjectEval, name string, pick func(q *EvalQuery) int) MethodResult {
	m := MethodResult{Name: name}
	devSum, oracleSum := 0.0, 0.0
	var inferTime time.Duration
	for i := range pe.Queries {
		q := &pe.Queries[i]
		sw := walltime.Start()
		idx := pick(q)
		inferTime += sw.Elapsed()
		if idx < 0 || idx >= len(q.Cands) {
			idx = 0
		}
		m.ChosenIdx = append(m.ChosenIdx, idx)
		m.PerQuery = append(m.PerQuery, q.Means[idx])
		m.AvgCost += q.Means[idx]
		oracle := q.OracleCost()
		if oracle > 0 {
			devSum += theory.ExpectedDeviance(q.Dists, idx) / oracle
			oracleSum++
		}
	}
	if n := len(pe.Queries); n > 0 {
		m.AvgCost /= float64(n)
		m.AvgInferSeconds = inferTime.Seconds() / float64(n)
	}
	if oracleSum > 0 {
		m.RelDeviance = devSum / oracleSum
	}
	return m
}

// pickWith returns a selection rule that scores the stored candidates with a
// trained predictor under an inference strategy, resolved per query against
// the cluster observations captured at that query's optimization moment (only
// LOAM-CE and LOAM-CB read them).
func pickWith(p *predictor.Predictor, strategy predictor.Strategy) func(q *EvalQuery) int {
	return func(q *EvalQuery) int {
		envs := p.EnvSourceFor(strategy, q.ClusterExpected, q.ClusterCurrent)
		costs := make([]float64, len(q.Cands))
		for i, c := range q.Cands {
			costs[i] = p.PredictCost(c, envs)
		}
		if best := floatsafe.ArgMin(costs); best >= 0 {
			return best
		}
		return 0 // every estimate NaN: fall back to the default plan
	}
}

// evalProject measures the native baseline, the theory bounds, and a set of
// model variants on one project.
func (e *Env) evalProject(name string, variants []Variant) (ProjectResult, error) {
	pe := e.Eval(name)
	pr := ProjectResult{
		Project:   name,
		TrainSize: pe.TrainSize,
		TestSize:  pe.TestSize,
	}
	pr.Native = pe.Native()
	for i := range pe.Queries {
		q := &pe.Queries[i]
		pr.NativePerQuery = append(pr.NativePerQuery, q.Means[0])
		oracle := q.OracleCost()
		pr.Oracle += oracle
		bi := q.BestAchievableIdx()
		pr.BestAchievable += q.Means[bi]
		if oracle > 0 {
			pr.ImprovementSpace += theory.ExpectedDeviance(q.Dists, 0) / oracle
			pr.BestAchievableDeviance += theory.ExpectedDeviance(q.Dists, bi) / oracle
		}
	}
	if n := float64(len(pe.Queries)); n > 0 {
		pr.Oracle /= n
		pr.BestAchievable /= n
		pr.ImprovementSpace /= n
		pr.BestAchievableDeviance /= n
	}

	for _, v := range variants {
		dep, err := e.Deployment(name, v)
		if err != nil {
			return pr, err
		}
		pick := pickWith(dep.Predictor(), predictor.StrategyMeanEnv)
		m := evalMethod(pe, v.Label(), pick)
		m.TrainSeconds = dep.Predictor().Metrics().TrainSeconds
		m.ModelBytes = dep.Predictor().Metrics().ModelBytes
		pr.Methods = append(pr.Methods, m)
	}
	return pr, nil
}

// Fig6 reproduces the end-to-end comparison: MaxCompute vs LOAM vs the
// Transformer, GCN and XGBoost baselines on the five evaluation projects,
// with the best-achievable bound.
func (e *Env) Fig6() (*Fig6Result, error) {
	variants := []Variant{
		LOAMVariant(),
		{Kind: predictor.KindTransformer, Adapt: true, UseEnv: true},
		{Kind: predictor.KindGCN, Adapt: true, UseEnv: true},
		{Kind: predictor.KindXGBoost, Adapt: true, UseEnv: true},
	}
	res := &Fig6Result{}
	for _, ps := range e.Projects() {
		pr, err := e.evalProject(ps.Config.Name, variants)
		if err != nil {
			return nil, err
		}
		res.Projects = append(res.Projects, pr)
	}
	return res, nil
}

// Method returns a project's method result by name, or nil.
func (pr *ProjectResult) Method(name string) *MethodResult {
	for i := range pr.Methods {
		if pr.Methods[i].Name == name {
			return &pr.Methods[i]
		}
	}
	return nil
}

// Render prints the Fig.-6 table.
func (r *Fig6Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 6 — Average E2E CPU cost (lower is better)")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %12s %12s %12s | %8s %8s\n",
		"project", "MaxCompute", "LOAM", "Transformer", "GCN", "XGBoost",
		"BestAchiev", "Oracle", "D(Md)%", "gain%")
	for _, pr := range r.Projects {
		loam := pr.Method("LOAM")
		gain := 0.0
		if pr.Native > 0 && loam != nil {
			gain = (1 - loam.AvgCost/pr.Native) * 100
		}
		get := func(name string) float64 {
			if m := pr.Method(name); m != nil {
				return m.AvgCost
			}
			return 0
		}
		fmt.Fprintf(w, "%-10s %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f | %8.1f %8.1f\n",
			pr.Project, pr.Native, get("LOAM"), get("Transformer"), get("GCN"), get("XGBoost"),
			pr.BestAchievable, pr.Oracle, pr.ImprovementSpace*100, gain)
	}
}

// Fig7Result reproduces Fig. 7: per-query cost deltas of LOAM vs MaxCompute,
// sorted from worst slowdown to best speedup.
type Fig7Result struct {
	Projects []Fig7Project
}

// Fig7Project is one project's per-query comparison.
type Fig7Project struct {
	Project string
	// Delta[i] = native cost − LOAM cost for test query i, sorted ascending
	// (negative = regression).
	Delta []float64
	// Speedups and Slowdowns count queries improved/regressed by more than
	// the tolerance band (2%).
	Speedups, Slowdowns int
	// MaxGain and MaxLoss are the extreme absolute deltas.
	MaxGain, MaxLoss float64
}

// Fig7 derives the per-query analysis from the Fig.-6 measurements.
func (e *Env) Fig7(f6 *Fig6Result) *Fig7Result {
	const tol = 0.02
	res := &Fig7Result{}
	for _, pr := range f6.Projects {
		loam := pr.Method("LOAM")
		if loam == nil {
			continue
		}
		fp := Fig7Project{Project: pr.Project}
		for i, native := range pr.NativePerQuery {
			d := native - loam.PerQuery[i]
			fp.Delta = append(fp.Delta, d)
			switch {
			case d > tol*native:
				fp.Speedups++
				if d > fp.MaxGain {
					fp.MaxGain = d
				}
			case d < -tol*native:
				fp.Slowdowns++
				if -d > fp.MaxLoss {
					fp.MaxLoss = -d
				}
			}
		}
		sort.Float64s(fp.Delta)
		res.Projects = append(res.Projects, fp)
	}
	return res
}

// Render prints the Fig.-7 summary plus the sorted delta series.
func (r *Fig7Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 7 — Per-query cost delta (native − LOAM), sorted")
	for _, fp := range r.Projects {
		fmt.Fprintf(w, "%-10s queries=%d speedups=%d slowdowns=%d maxGain=%.0f maxLoss=%.0f\n",
			fp.Project, len(fp.Delta), fp.Speedups, fp.Slowdowns, fp.MaxGain, fp.MaxLoss)
		fmt.Fprintf(w, "  deltas:")
		for _, d := range fp.Delta {
			fmt.Fprintf(w, " %.0f", d)
		}
		fmt.Fprintln(w)
	}
}

// Fig9Result reproduces Fig. 9's three tables: training overhead, model
// footprint and average inference time per method per project.
type Fig9Result struct {
	Projects []string
	Methods  []string
	// Train[method][project], Size[method][project], Infer[method][project].
	Train map[string]map[string]float64
	Size  map[string]map[string]int
	Infer map[string]map[string]float64
}

// Fig9 derives the overhead tables from the Fig.-6 runs.
func (e *Env) Fig9(f6 *Fig6Result) *Fig9Result {
	res := &Fig9Result{
		Train: map[string]map[string]float64{},
		Size:  map[string]map[string]int{},
		Infer: map[string]map[string]float64{},
	}
	for _, pr := range f6.Projects {
		res.Projects = append(res.Projects, pr.Project)
		for _, m := range pr.Methods {
			if res.Train[m.Name] == nil {
				res.Methods = append(res.Methods, m.Name)
				res.Train[m.Name] = map[string]float64{}
				res.Size[m.Name] = map[string]int{}
				res.Infer[m.Name] = map[string]float64{}
			}
			res.Train[m.Name][pr.Project] = m.TrainSeconds
			res.Size[m.Name][pr.Project] = m.ModelBytes
			res.Infer[m.Name][pr.Project] = m.AvgInferSeconds
		}
	}
	return res
}

// Render prints the three overhead tables.
func (r *Fig9Result) Render(w io.Writer) {
	row := func(title string, get func(method, project string) string) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "%-12s", "method")
		for _, p := range r.Projects {
			fmt.Fprintf(w, " %12s", p)
		}
		fmt.Fprintln(w)
		for _, m := range r.Methods {
			fmt.Fprintf(w, "%-12s", m)
			for _, p := range r.Projects {
				fmt.Fprintf(w, " %12s", get(m, p))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "Figure 9 — Extra cost of learned optimizers")
	row("(a) Training time (s)", func(m, p string) string {
		return fmt.Sprintf("%.2f", r.Train[m][p])
	})
	row("(b) Model footprint (MB)", func(m, p string) string {
		return fmt.Sprintf("%.2f", float64(r.Size[m][p])/1e6)
	})
	row("(c) Avg inference time (s/query)", func(m, p string) string {
		return fmt.Sprintf("%.4f", r.Infer[m][p])
	})
}

// Fig11Result reproduces Fig. 11: the adaptive-training ablation.
type Fig11Result struct {
	Projects []string
	Native   map[string]float64
	NoAdapt  map[string]float64 // LOAM-NA
	LOAM     map[string]float64
}

// Fig11 evaluates LOAM-NA (no domain classifier / GRL) against LOAM and the
// native optimizer.
func (e *Env) Fig11(f6 *Fig6Result) (*Fig11Result, error) {
	res := &Fig11Result{
		Native:  map[string]float64{},
		NoAdapt: map[string]float64{},
		LOAM:    map[string]float64{},
	}
	for _, pr := range f6.Projects {
		name := pr.Project
		res.Projects = append(res.Projects, name)
		res.Native[name] = pr.Native
		if m := pr.Method("LOAM"); m != nil {
			res.LOAM[name] = m.AvgCost
		}
		dep, err := e.Deployment(name, Variant{Kind: predictor.KindTCN, Adapt: false, UseEnv: true})
		if err != nil {
			return nil, err
		}
		pick := pickWith(dep.Predictor(), predictor.StrategyMeanEnv)
		m := evalMethod(e.Eval(name), "LOAM-NA", pick)
		res.NoAdapt[name] = m.AvgCost
	}
	return res, nil
}

// Render prints the ablation table.
func (r *Fig11Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 11 — Effects of adaptive training (average CPU cost)")
	fmt.Fprintf(w, "%-12s", "method")
	for _, p := range r.Projects {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintln(w)
	printRow := func(name string, vals map[string]float64) {
		fmt.Fprintf(w, "%-12s", name)
		for _, p := range r.Projects {
			fmt.Fprintf(w, " %12.0f", vals[p])
		}
		fmt.Fprintln(w)
	}
	printRow("MaxCompute", r.Native)
	printRow("LOAM-NA", r.NoAdapt)
	printRow("LOAM", r.LOAM)
}

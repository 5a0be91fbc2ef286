package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"loam"
	"loam/internal/cluster"
	"loam/internal/exec"
	"loam/internal/theory"
	"loam/internal/workload"
)

// Fig1Result reproduces Fig. 1's inset bar plot: the relative standard
// deviation of CPU costs for recurring queries observed over a month, where
// an identical query can fluctuate by up to ~50%.
type Fig1Result struct {
	// RSDs are per-template relative standard deviations of CPU cost,
	// sorted ascending.
	RSDs []float64
	// LatencyRSDs are the matching relative standard deviations of
	// end-to-end latency — the noisier metric LOAM deliberately avoids
	// predicting (§3).
	LatencyRSDs []float64
	Reps        int
}

// recurringRuns executes a template's canonical (non-churned) instance's
// default plan reps times on flight, a fork of the project's executor,
// returning the observed CPU costs and end-to-end latencies.
func recurringRuns(flight *exec.Executor, ps *loam.ProjectSim, tpl *workload.Template, day, reps int) (costs, latencies []float64) {
	churn := tpl.ParamChurn
	tpl.ParamChurn = 0
	q := tpl.Instantiate(ps.Rng("fig1"), day)
	tpl.ParamChurn = churn

	def := ps.Explorer(day).DefaultPlan(q)
	opt := ps.ExecOptions(q)
	costs = make([]float64, reps)
	latencies = make([]float64, reps)
	for r := range costs {
		rec := flight.Execute(def, day, opt)
		costs[r] = rec.CPUCost
		latencies[r] = rec.LatencySec
	}
	return costs, latencies
}

// Fig1 measures cost variability of recurring queries on project 1.
func (e *Env) Fig1() *Fig1Result {
	ps := e.Projects()[0]
	flight := ps.Executor.Fork("flight/fig1")
	const reps = 25
	res := &Fig1Result{Reps: reps}
	for _, tpl := range ps.Gen.Templates {
		costs, latencies := recurringRuns(flight, ps, tpl, 2, reps)
		_, rsd := theory.Moments(costs)
		res.RSDs = append(res.RSDs, rsd)
		_, lrsd := theory.Moments(latencies)
		res.LatencyRSDs = append(res.LatencyRSDs, lrsd)
	}
	sort.Float64s(res.RSDs)
	sort.Float64s(res.LatencyRSDs)
	return res
}

// Max returns the largest observed RSD.
func (r *Fig1Result) Max() float64 {
	if len(r.RSDs) == 0 {
		return 0
	}
	return r.RSDs[len(r.RSDs)-1]
}

// Render prints the RSD bars.
func (r *Fig1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 1 (inset) — Relative std-dev of CPU cost for recurring queries (%d executions each)\n", r.Reps)
	for i, rsd := range r.RSDs {
		fmt.Fprintf(w, "  query %2d: %5.1f%% %s\n", i+1, rsd*100, bar(rsd, 0.6, 40))
	}
	costMed, latMed := median(r.RSDs), median(r.LatencyRSDs)
	fmt.Fprintf(w, "median RSD: CPU cost %.1f%% vs E2E latency %.1f%% — latency is the noisier metric (§3)\n",
		costMed*100, latMed*100)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)/2]
}

// Fig5Result reproduces Fig. 5: CPU cost of a recurring query against
// machine-load metrics, showing the roughly monotone/linear response.
type Fig5Result struct {
	// Samples are (CPU_IDLE, LOAD5-normalized, MEM_USAGE, cost) tuples.
	Idle, Load5, Mem, Cost []float64
	// CorrIdle and CorrLoad5 are Pearson correlations of cost with CPU_IDLE
	// (expected negative) and normalized LOAD5 (expected positive).
	CorrIdle, CorrLoad5 float64
}

// Fig5 flights one recurring query many times and relates cost to the
// per-execution average machine load.
func (e *Env) Fig5() *Fig5Result {
	ps := e.Projects()[0]
	tpl := ps.Gen.Templates[0]
	churn := tpl.ParamChurn
	tpl.ParamChurn = 0
	q := tpl.Instantiate(ps.Rng("fig5"), 2)
	tpl.ParamChurn = churn
	def := ps.Explorer(2).DefaultPlan(q)
	opt := exec.DefaultOptions()
	opt.NoiseSigma = 0.05 // isolate the environment effect

	flight := ps.Executor.Fork("flight/fig5")
	res := &Fig5Result{}
	const reps = 120
	for r := 0; r < reps; r++ {
		rec := flight.Execute(def, 2, opt)
		var env cluster.Metrics
		for _, se := range rec.StageEnvs {
			env = env.Add(se)
		}
		env = env.Scale(1 / float64(len(rec.StageEnvs)))
		f := env.Normalized()
		res.Idle = append(res.Idle, f[0])
		res.Load5 = append(res.Load5, f[2])
		res.Mem = append(res.Mem, f[3])
		res.Cost = append(res.Cost, rec.CPUCost)
	}
	res.CorrIdle = pearson(res.Idle, res.Cost)
	res.CorrLoad5 = pearson(res.Load5, res.Cost)
	return res
}

// Render prints binned cost means against CPU_IDLE and LOAD5.
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 5 — CPU cost of a recurring query w.r.t. machine load")
	fmt.Fprintf(w, "corr(cost, CPU_IDLE) = %+.3f   corr(cost, LOAD5) = %+.3f\n", r.CorrIdle, r.CorrLoad5)
	renderBins(w, "CPU_IDLE", r.Idle, r.Cost)
	renderBins(w, "LOAD5(norm)", r.Load5, r.Cost)
}

func renderBins(w io.Writer, label string, x, y []float64) {
	const bins = 6
	lo, hi := minMax(x)
	if hi <= lo {
		return
	}
	sums := make([]float64, bins)
	counts := make([]int, bins)
	for i := range x {
		b := int(float64(bins) * (x[i] - lo) / (hi - lo))
		if b >= bins {
			b = bins - 1
		}
		sums[b] += y[i]
		counts[b]++
	}
	fmt.Fprintf(w, "  %s bins:", label)
	for b := 0; b < bins; b++ {
		if counts[b] == 0 {
			fmt.Fprintf(w, "  [%.2f: -]", lo+(hi-lo)*(float64(b)+0.5)/bins)
			continue
		}
		fmt.Fprintf(w, "  [%.2f: %.0f]", lo+(hi-lo)*(float64(b)+0.5)/bins, sums[b]/float64(counts[b]))
	}
	fmt.Fprintln(w)
}

// Fig15Result reproduces App. Fig. 15: the log-normal shape of a recurring
// plan's execution costs — histogram vs fitted curve, Q-Q points, and the
// Kolmogorov–Smirnov test (the paper reports an average p-value ≈ 0.6).
type Fig15Result struct {
	Costs    []float64
	Fit      theory.LogNormal
	KSStat   float64
	KSPValue float64
	// AvgPValue averages the KS p-value across several recurring templates.
	AvgPValue float64
}

// Fig15 fits the execution-cost distribution of recurring plans.
func (e *Env) Fig15() *Fig15Result {
	ps := e.Projects()[0]
	flight := ps.Executor.Fork("flight/fig15")
	const reps = 120
	res := &Fig15Result{}
	pSum, pCount := 0.0, 0
	for i, tpl := range ps.Gen.Templates {
		costs, _ := recurringRuns(flight, ps, tpl, 2, reps)
		fit, err := theory.FitLogNormal(costs)
		if err != nil {
			continue
		}
		_, p := theory.KSTest(costs, fit)
		pSum += p
		pCount++
		if i == 0 {
			res.Costs = costs
			res.Fit = fit
			res.KSStat, res.KSPValue = theory.KSTest(costs, fit)
		}
		if pCount >= 6 {
			break
		}
	}
	if pCount > 0 {
		res.AvgPValue = pSum / float64(pCount)
	}
	return res
}

// Render prints the histogram with the fitted density and Q-Q pairs.
func (r *Fig15Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 15 — Cost distribution of an example recurring plan")
	fmt.Fprintf(w, "fit: LogNormal(mu=%.3f, sigma=%.3f)  KS=%.3f  p=%.3f  avg-p(6 plans)=%.3f\n",
		r.Fit.Mu, r.Fit.Sigma, r.KSStat, r.KSPValue, r.AvgPValue)
	if len(r.Costs) == 0 {
		return
	}
	sorted := append([]float64(nil), r.Costs...)
	sort.Float64s(sorted)
	const bins = 10
	lo, hi := sorted[0], sorted[len(sorted)-1]
	counts := make([]int, bins)
	for _, c := range r.Costs {
		b := int(float64(bins) * (c - lo) / (hi - lo + 1e-9))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	fmt.Fprintln(w, "(a) histogram (observed | fitted density scaled)")
	n := float64(len(r.Costs))
	width := (hi - lo) / bins
	for b := 0; b < bins; b++ {
		mid := lo + (float64(b)+0.5)*width
		expected := r.Fit.PDF(mid) * n * width
		fmt.Fprintf(w, "  [%9.0f] obs=%3d fit=%5.1f %s\n", mid, counts[b], expected, bar(float64(counts[b])/n, 0.5, 30))
	}
	fmt.Fprintln(w, "(b) Q-Q (theoretical vs empirical quantiles)")
	for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		emp := sorted[int(p*float64(len(sorted)-1))]
		fmt.Fprintf(w, "  p=%.2f theo=%9.0f emp=%9.0f\n", p, r.Fit.Quantile(p), emp)
	}
}

// Table1Result reproduces Table 1: statistics of the evaluation projects.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one project's statistics.
type Table1Row struct {
	Project    string
	Tables     int
	Columns    int
	TrainCount int
	TestCount  int
	AvgCost    float64
}

// Table1 computes the project statistics table.
func (e *Env) Table1() *Table1Result {
	res := &Table1Result{}
	for _, ps := range e.Projects() {
		pe := e.Eval(ps.Config.Name)
		res.Rows = append(res.Rows, Table1Row{
			Project:    ps.Config.Name,
			Tables:     len(ps.Project.Tables),
			Columns:    ps.Project.NumColumns(),
			TrainCount: pe.TrainSize,
			TestCount:  pe.TestSize,
			AvgCost:    pe.AvgTrainCost,
		})
	}
	return res
}

// Render prints Table 1.
func (r *Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — Statistics of projects used in the experiments")
	fmt.Fprintf(w, "%-22s", "datasets")
	for _, row := range r.Rows {
		fmt.Fprintf(w, " %12s", row.Project)
	}
	fmt.Fprintln(w)
	line := func(name string, get func(Table1Row) string) {
		fmt.Fprintf(w, "%-22s", name)
		for _, row := range r.Rows {
			fmt.Fprintf(w, " %12s", get(row))
		}
		fmt.Fprintln(w)
	}
	line("# of tables", func(r Table1Row) string { return fmt.Sprint(r.Tables) })
	line("# of columns", func(r Table1Row) string { return fmt.Sprint(r.Columns) })
	line("# of training queries", func(r Table1Row) string { return fmt.Sprint(r.TrainCount) })
	line("# of test queries", func(r Table1Row) string { return fmt.Sprint(r.TestCount) })
	line("average CPU cost", func(r Table1Row) string { return fmt.Sprintf("%.0f", r.AvgCost) })
}

func bar(v, maxV float64, width int) string {
	n := int(v / maxV * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	mx, my := 0.0, 0.0
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func minMax(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

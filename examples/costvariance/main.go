// Cost variance: reproduce the paper's Challenge-C1 phenomenology on the
// simulated cluster — an identical recurring query fluctuates in CPU cost
// with machine load (Fig. 1's relative std-dev inset, Fig. 5's load→cost
// response, and App. Fig. 15's log-normal shape).
package main

import (
	"fmt"
	"sort"

	"loam"
	"loam/internal/cluster"
	"loam/internal/exec"
	"loam/internal/theory"
)

func main() {
	sim := loam.NewSimulation(5, loam.DefaultSimulationConfig())
	cfg := loam.DefaultProjectConfig("variance")
	cfg.Workload.NumTemplates = 10
	ps := sim.AddProject(cfg)
	flight := ps.Executor.Fork("flight/variance")

	// Relative std-dev across recurring templates (Fig. 1 inset).
	fmt.Println("recurring-query cost variability (30 executions each):")
	type row struct {
		id  string
		rsd float64
	}
	var rows []row
	for _, tpl := range ps.Gen.Templates {
		tpl.ParamChurn = 0 // identical recurring query
		q := tpl.Instantiate(ps.Rng("var"), 1)
		p := ps.Explorer(1).DefaultPlan(q)
		_, rsd := theory.Moments(flight.Flight(p, 1, 30, ps.ExecOptions(q)))
		rows = append(rows, row{id: tpl.ID, rsd: rsd})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].rsd < rows[j].rsd })
	for _, r := range rows {
		fmt.Printf("  %-22s RSD %5.1f%% %s\n", r.id, r.rsd*100, bar(r.rsd))
	}

	// Load→cost response for one query (Fig. 5).
	tpl := ps.Gen.Templates[0]
	q := tpl.Instantiate(ps.Rng("var2"), 1)
	p := ps.Explorer(1).DefaultPlan(q)
	opt := exec.DefaultOptions()
	opt.NoiseSigma = 0.05
	var idles, costs []float64
	for i := 0; i < 80; i++ {
		rec := flight.Execute(p, 1, opt)
		var env cluster.Metrics
		for _, se := range rec.StageEnvs {
			env = env.Add(se)
		}
		env = env.Scale(1 / float64(len(rec.StageEnvs)))
		idles = append(idles, env.CPUIdle)
		costs = append(costs, rec.CPUCost)
	}
	fmt.Println("\ncost vs CPU_IDLE (binned means — roughly linear, decreasing):")
	const bins = 5
	lo, hi := idles[0], idles[0]
	for _, v := range idles {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	sum := make([]float64, bins)
	cnt := make([]int, bins)
	for i, v := range idles {
		b := int(float64(bins) * (v - lo) / (hi - lo + 1e-9))
		if b >= bins {
			b = bins - 1
		}
		sum[b] += costs[i]
		cnt[b]++
	}
	for b := 0; b < bins; b++ {
		mid := lo + (hi-lo)*(float64(b)+0.5)/bins
		if cnt[b] == 0 {
			continue
		}
		fmt.Printf("  idle≈%.2f  cost≈%8.0f\n", mid, sum[b]/float64(cnt[b]))
	}

	// Log-normal shape (Fig. 15).
	fit, err := theory.FitLogNormal(costs)
	if err != nil {
		fmt.Println("fit error:", err)
		return
	}
	stat, pValue := theory.KSTest(costs, fit)
	fmt.Printf("\nlog-normal fit: mu=%.3f sigma=%.3f  KS=%.3f p=%.3f\n", fit.Mu, fit.Sigma, stat, pValue)
}

func bar(v float64) string {
	n := int(v * 80)
	if n > 40 {
		n = 40
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

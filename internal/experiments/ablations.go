package experiments

import (
	"fmt"
	"io"

	"loam"
	"loam/internal/encoding"
	"loam/internal/predictor"
)

// Ext2Result ablates the §3 design choice of predicting CPU cost rather
// than end-to-end latency: "latency ... is highly sensitive to transient
// system conditions ... and thus often noisy. Accordingly, LOAM predicts CPU
// cost as a more stable proxy." The ablation trains an otherwise identical
// predictor on latency labels and compares the E2E CPU cost of its plan
// selections.
type Ext2Result struct {
	Projects []Ext2Project
}

// Ext2Project is one project's label ablation.
type Ext2Project struct {
	Project string
	Native  float64
	// CostLabel and LatencyLabel are the average measured CPU costs of the
	// plans selected by the cost-trained and latency-trained predictors.
	CostLabel    float64
	LatencyLabel float64
}

// trainOn fits a LOAM predictor without adaptation on the project's
// training window, with an identifier encoding and a label extractor of the
// ablation's choosing, and returns its selection rule.
func (e *Env) trainOn(project string, ecfg encoding.Config, labelOf func(cost, latency float64) float64) (func(q *EvalQuery) int, error) {
	ps := e.Project(project)
	train, _ := ps.Repo.Split(e.Cfg.TrainDays, e.Cfg.TestDays, e.Cfg.MaxTrain)
	enc := encoding.NewEncoder(ecfg)
	samples := loam.TrainingSamples(train)
	for i, entry := range train {
		samples[i].Cost = labelOf(entry.Record.CPUCost, entry.Record.LatencySec)
	}
	pcfg := e.Cfg.predictorConfig()
	pcfg.Adapt = false // adaptation is orthogonal to both ablations
	pred, err := predictor.Train(pcfg, enc, samples, nil)
	if err != nil {
		return nil, err
	}
	return pickWith(pred, predictor.StrategyMeanEnv), nil
}

// costLabel is the paper's training label: the CPU cost.
func costLabel(cost, latency float64) float64 { return cost }

// Ext2 runs the label ablation on the two highest-headroom projects.
func (e *Env) Ext2() (*Ext2Result, error) {
	res := &Ext2Result{}
	for _, name := range []string{"project2", "project5"} {
		pe := e.Eval(name)
		pr := Ext2Project{Project: name, Native: pe.Native()}
		costPick, err := e.trainOn(name, encoding.DefaultConfig(), costLabel)
		if err != nil {
			return nil, err
		}
		latPick, err := e.trainOn(name, encoding.DefaultConfig(), func(cost, latency float64) float64 { return latency })
		if err != nil {
			return nil, err
		}
		pr.CostLabel = evalMethod(pe, "cost-label", costPick).AvgCost
		pr.LatencyLabel = evalMethod(pe, "latency-label", latPick).AvgCost
		res.Projects = append(res.Projects, pr)
	}
	return res, nil
}

// Render prints the label ablation.
func (r *Ext2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation (§3) — Training label: CPU cost vs E2E latency")
	fmt.Fprintf(w, "%-10s %12s %12s %14s\n", "project", "MaxCompute", "cost-label", "latency-label")
	for _, p := range r.Projects {
		fmt.Fprintf(w, "%-10s %12.0f %12.0f %14.0f\n", p.Project, p.Native, p.CostLabel, p.LatencyLabel)
	}
}

// Ext3Result ablates the App.-B.1 design choice of multi-segment hash
// encoding for table/column identifiers against the naive single-segment
// encoding of the same total width, which collides systematically.
type Ext3Result struct {
	Projects []Ext3Project
}

// Ext3Project is one project's encoding ablation.
type Ext3Project struct {
	Project string
	Native  float64
	// MultiSegment and SingleSegment are average measured CPU costs of
	// selections by predictors using 5×8 and 1×40 identifier encodings.
	MultiSegment  float64
	SingleSegment float64
}

// Ext3 runs the encoding ablation on the two highest-headroom projects.
func (e *Env) Ext3() (*Ext3Result, error) {
	res := &Ext3Result{}
	for _, name := range []string{"project2", "project5"} {
		pe := e.Eval(name)
		pr := Ext3Project{Project: name, Native: pe.Native()}
		for _, multi := range []bool{true, false} {
			ecfg := encoding.DefaultConfig() // 5 segments × 8
			if !multi {
				ecfg.Segments = 1
				ecfg.SegmentDim = 40 // same total width, one hash function
			}
			pick, err := e.trainOn(name, ecfg, costLabel)
			if err != nil {
				return nil, err
			}
			avg := evalMethod(pe, "enc", pick).AvgCost
			if multi {
				pr.MultiSegment = avg
			} else {
				pr.SingleSegment = avg
			}
		}
		res.Projects = append(res.Projects, pr)
	}
	return res, nil
}

// Render prints the encoding ablation.
func (r *Ext3Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation (App. B.1) — Identifier encoding: 5×8 multi-segment vs 1×40 single-segment")
	fmt.Fprintf(w, "%-10s %12s %14s %14s\n", "project", "MaxCompute", "multiSegment", "singleSegment")
	for _, p := range r.Projects {
		fmt.Fprintf(w, "%-10s %12.0f %14.0f %14.0f\n", p.Project, p.Native, p.MultiSegment, p.SingleSegment)
	}
}

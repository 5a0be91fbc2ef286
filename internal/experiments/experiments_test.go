package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// tinyEnv is shared across the experiment smoke tests (building it is the
// expensive part).
var tinyEnvCache *Env

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	if tinyEnvCache == nil {
		tinyEnvCache = NewEnv(Tiny())
	}
	return tinyEnvCache
}

func TestFig1Shape(t *testing.T) {
	env := tinyEnv(t)
	r := env.Fig1()
	if len(r.RSDs) == 0 {
		t.Fatal("no RSDs")
	}
	for i, rsd := range r.RSDs {
		if rsd < 0 || rsd > 2 {
			t.Fatalf("RSD %g out of range", rsd)
		}
		if i > 0 && rsd < r.RSDs[i-1] {
			t.Fatal("RSDs not sorted")
		}
	}
	if r.Max() < 0.05 {
		t.Fatalf("max RSD %g implausibly low — environment variance missing", r.Max())
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestTable1Shape(t *testing.T) {
	env := tinyEnv(t)
	r := env.Table1()
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Tables <= 0 || row.Columns <= 0 || row.TrainCount <= 0 || row.AvgCost <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
	}
	// Project 2 has the largest average cost by construction.
	if r.Rows[1].AvgCost < r.Rows[2].AvgCost {
		t.Fatal("project2 should dwarf project3 in average cost")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("render missing title")
	}
}

func TestFig5Shape(t *testing.T) {
	env := tinyEnv(t)
	r := env.Fig5()
	if len(r.Cost) == 0 {
		t.Fatal("no samples")
	}
	// The load→cost response is the phenomenon: cost decreases with idle.
	if r.CorrIdle >= 0 {
		t.Fatalf("corr(cost, idle) = %g, want negative", r.CorrIdle)
	}
	if r.CorrLoad5 <= 0 {
		t.Fatalf("corr(cost, load5) = %g, want positive", r.CorrLoad5)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("render missing title")
	}
}

func TestFig15Shape(t *testing.T) {
	env := tinyEnv(t)
	r := env.Fig15()
	if len(r.Costs) == 0 {
		t.Fatal("no costs")
	}
	if r.Fit.Sigma <= 0 {
		t.Fatal("no fit")
	}
	// The log-normal model should not be rejected on average (paper: ~0.6).
	if r.AvgPValue < 0.05 {
		t.Fatalf("avg KS p-value %g — cost distribution not log-normal", r.AvgPValue)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Q-Q") {
		t.Fatal("render missing Q-Q section")
	}
}

func TestThm1Holds(t *testing.T) {
	env := tinyEnv(t)
	r := env.Thm1()
	if r.Queries == 0 {
		t.Fatal("no queries verified")
	}
	if r.Violations != 0 {
		t.Fatalf("%d Theorem-1 violations", r.Violations)
	}
	if r.BestAch > r.Native+0.02 {
		t.Fatalf("best-achievable deviance %g above native %g", r.BestAch, r.Native)
	}
	if r.MCAgreement > 0.1 {
		t.Fatalf("Eq.(2) vs Monte-Carlo disagreement %g", r.MCAgreement)
	}
}

func TestFig12RankerBeatsRandomOnNDCG1(t *testing.T) {
	env := tinyEnv(t)
	r := env.Fig12()
	if len(r.Ks) == 0 {
		t.Fatal("no ks")
	}
	// At tiny scale only require the headline: NDCG@1 above random.
	if r.NDCG[0] <= r.NDCGRandom[0]-0.05 {
		t.Fatalf("Ranker NDCG@1 %g below random %g", r.NDCG[0], r.NDCGRandom[0])
	}
	for ki := range r.Ks {
		for _, v := range []float64{r.Recall[ki], r.NDCG[ki], r.RecallRandom[ki], r.NDCGRandom[ki]} {
			if v < 0 || v > 1.0001 {
				t.Fatalf("metric out of bounds: %g", v)
			}
		}
	}
}

func TestFig16Shape(t *testing.T) {
	env := tinyEnv(t)
	r := env.Fig16()
	if len(r.TrainSizes) == 0 {
		t.Fatal("no sizes")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 16") {
		t.Fatal("render missing title")
	}
}

func TestSec73Estimate(t *testing.T) {
	env := tinyEnv(t)
	f6, err := env.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	r := env.Sec73(f6)
	if r.FleetSize == 0 {
		t.Fatal("no fleet")
	}
	if r.PassRate < 0 || r.PassRate > 1 {
		t.Fatalf("pass rate %g", r.PassRate)
	}
	if r.Estimate != r.PassRate*r.WinRate {
		t.Fatal("estimate formula broken")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Section 7.3") {
		t.Fatal("render missing title")
	}
}

func TestFig8UsesCachedFullRun(t *testing.T) {
	env := tinyEnv(t)
	f6, err := env.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	r, err := env.Fig8(f6)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range r.Projects {
		if len(fp.Sizes) != len(fp.Costs) {
			t.Fatal("sweep length mismatch")
		}
		for i := 1; i < len(fp.Sizes); i++ {
			if fp.Sizes[i] < fp.Sizes[i-1] {
				t.Fatal("sizes not increasing")
			}
		}
		// The final point is the Fig.-6 LOAM result.
		var pr *ProjectResult
		for i := range f6.Projects {
			if f6.Projects[i].Project == fp.Project {
				pr = &f6.Projects[i]
			}
		}
		if m := pr.Method("LOAM"); m != nil && fp.Costs[len(fp.Costs)-1] != m.AvgCost {
			t.Fatal("full-size sweep point should reuse the Fig6 LOAM run")
		}
	}
}

func TestFig10Structure(t *testing.T) {
	env := tinyEnv(t)
	f6, err := env.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	r, err := env.Fig10(f6)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range r.Projects {
		for _, s := range r.Strategies() {
			if fp.Cost[s] <= 0 {
				t.Fatalf("%s %s cost %g", fp.Project, s, fp.Cost[s])
			}
			if fp.RelDev[s] < -1e-9 {
				t.Fatalf("%s %s negative deviance", fp.Project, s)
			}
		}
		if fp.BestAchievableRelDev < 0 {
			t.Fatal("negative best-achievable deviance")
		}
	}
}

func TestVariantLabels(t *testing.T) {
	cases := map[string]Variant{
		"LOAM":    LOAMVariant(),
		"LOAM-NA": {Adapt: false, UseEnv: true},
		"LOAM-NL": {Adapt: true, UseEnv: false},
	}
	for want, v := range cases {
		if got := v.Label(); got != want {
			t.Fatalf("label %q, want %q", got, want)
		}
	}
	// Fig. 6's baselines, in its column order, each at the seed it has
	// always trained at.
	var got []string
	for _, b := range fig6Baselines {
		got = append(got, fmt.Sprintf("%s+%d", b.name, b.seed))
	}
	if want := []string{"Transformer+2", "GCN+3", "XGBoost+4"}; !slices.Equal(got, want) {
		t.Fatalf("baselines %v, want %v", got, want)
	}
}

func TestConfigScaling(t *testing.T) {
	cfg := Default()
	specs := cfg.EvalProjectSpecs()
	if len(specs) != 5 {
		t.Fatalf("specs %d", len(specs))
	}
	big := cfg
	big.WorkloadScale = 2
	bigSpecs := big.EvalProjectSpecs()
	for i := range specs {
		if bigSpecs[i].Workload.NumTemplates <= specs[i].Workload.NumTemplates {
			t.Fatal("scale did not grow templates")
		}
	}
}

func TestExt1WideCeilingAtLeastNarrow(t *testing.T) {
	env := tinyEnv(t)
	r := env.Ext1()
	if len(r.Projects) != 5 {
		t.Fatalf("projects %d", len(r.Projects))
	}
	for _, p := range r.Projects {
		if p.WideCeiling < p.NarrowCeiling-1e-9 {
			t.Fatalf("%s: wide ceiling %.3f below narrow %.3f", p.Project, p.WideCeiling, p.NarrowCeiling)
		}
		if p.WideCands < p.NarrowCands {
			t.Fatalf("%s: wide explores fewer candidates", p.Project)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Exploration ceiling") {
		t.Fatal("render missing title")
	}
}

func TestExt2LabelAblation(t *testing.T) {
	env := tinyEnv(t)
	r, err := env.Ext2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Projects) != 2 {
		t.Fatalf("projects %d", len(r.Projects))
	}
	for _, p := range r.Projects {
		if p.CostLabel <= 0 || p.LatencyLabel <= 0 || p.Native <= 0 {
			t.Fatalf("degenerate ablation row %+v", p)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "CPU cost vs E2E latency") {
		t.Fatal("render missing title")
	}
}

func TestExt3EncodingAblation(t *testing.T) {
	env := tinyEnv(t)
	r, err := env.Ext3()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Projects {
		if p.MultiSegment <= 0 || p.SingleSegment <= 0 {
			t.Fatalf("degenerate ablation row %+v", p)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "multi-segment") {
		t.Fatal("render missing title")
	}
}

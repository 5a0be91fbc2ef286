package predictor

import (
	"errors"
	"math"
	"testing"

	"loam/internal/encoding"
	"loam/internal/expr"
	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/simrand"
)

// synthetic builds a toy training set whose cost is a simple function of
// plan structure: cost grows with the number of scan nodes and the table's
// identity, so a working predictor must exceed chance at ranking.
func synthetic(n int, seed uint64) ([]Sample, []*plan.Plan) {
	rng := simrand.New(seed)
	var samples []Sample
	var cands []*plan.Plan
	for i := 0; i < n; i++ {
		tables := 1 + rng.Intn(3)
		cost := 100.0
		root := &plan.Node{Op: plan.OpSelect}
		for s := 0; s < tables; s++ {
			tid := rng.Intn(4)
			scan := &plan.Node{
				Op:              plan.OpTableScan,
				Table:           []string{"small", "mid", "big", "huge"}[tid],
				PartitionsRead:  1 + rng.Intn(8),
				ColumnsAccessed: 1 + rng.Intn(4),
			}
			cost += []float64{50, 500, 5_000, 50_000}[tid]
			root.Children = append(root.Children, scan)
		}
		cost *= rng.LogNormal(0, 0.05)
		env := [4]float64{rng.Uniform(0.3, 0.7), 0.05, 0.4, 0.5}
		p := &plan.Plan{Root: root}
		samples = append(samples, Sample{
			Plan: p,
			Envs: encoding.FixedEnv(env),
			Cost: cost,
		})
		if i%5 == 0 {
			c := p.Clone()
			c.Knobs = []string{"flag:mergeJoin"}
			cands = append(cands, c)
		}
	}
	return samples, cands
}

func tinyConfig(kind Kind) Config {
	cfg := DefaultConfig()
	cfg.Kind = kind
	cfg.Epochs = 6
	cfg.Hidden = 12
	cfg.EmbDim = 8
	return cfg
}

func TestTrainAllKinds(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, cands := synthetic(120, 1)
	for _, kind := range []Kind{KindTCN, KindTransformer, KindGCN, KindXGBoost} {
		p, err := Train(tinyConfig(kind), enc, samples, cands)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		met := p.Metrics()
		if met.ModelBytes <= 0 {
			t.Fatalf("%v: model bytes %d", kind, met.ModelBytes)
		}
		if met.TrainSeconds <= 0 {
			t.Fatalf("%v: train seconds %g", kind, met.TrainSeconds)
		}
		// Predictions must be positive and finite.
		c := p.PredictCost(samples[0].Plan, samples[0].Envs)
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("%v: predicted %g", kind, c)
		}
	}
}

func TestTrainEmpty(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	_, err := Train(DefaultConfig(), enc, nil, nil)
	if !errors.Is(err, ErrNoTrainingData) {
		t.Fatalf("want ErrNoTrainingData, got %v", err)
	}
}

func TestPredictorRanksTableSizes(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, cands := synthetic(300, 2)
	cfg := tinyConfig(KindTCN)
	cfg.Epochs = 15
	p, err := Train(cfg, enc, samples, cands)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(table string) *plan.Plan {
		return &plan.Plan{Root: &plan.Node{Op: plan.OpSelect, Children: []*plan.Node{
			{Op: plan.OpTableScan, Table: table, PartitionsRead: 4, ColumnsAccessed: 2},
		}}}
	}
	envs := encoding.FixedEnv(p.TrainMeanEnv())
	small := p.PredictCost(mk("small"), envs)
	huge := p.PredictCost(mk("huge"), envs)
	if huge <= small {
		t.Fatalf("predictor failed size ordering: small=%g huge=%g", small, huge)
	}
}

func TestSelectPlanPicksMin(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, cands := synthetic(150, 3)
	p, err := Train(tinyConfig(KindXGBoost), enc, samples, cands)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*plan.Plan{samples[0].Plan, samples[1].Plan, samples[2].Plan}
	best, costs, err := p.SelectPlanKeyed(plans, encoding.FixedEnv(p.TrainMeanEnv()), encoding.EnvKey{})
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 || best == nil {
		t.Fatal("selection malformed")
	}
	minIdx := 0
	for i, c := range costs {
		if c < costs[minIdx] {
			minIdx = i
		}
	}
	if best != plans[minIdx] {
		t.Fatal("SelectPlanKeyed did not pick the minimum")
	}
}

// stubBackbone maps a plan's root table name to a fixed scalar embedding so
// tests can hand SelectPlanKeyed exact (possibly NaN) estimates.
type stubBackbone struct{ vals map[string]float64 }

func (b stubBackbone) embed(p *plan.Plan, envs encoding.EnvSource) *nn.Tensor {
	return nn.FromData(1, 1, []float64{b.vals[p.Root.Table]})
}

func (b stubBackbone) embedInfer(s *inferScratch, dst []float64, plans []*plan.Plan, envs encoding.EnvSource) {
	for k, p := range plans {
		dst[k] = b.vals[p.Root.Table]
	}
}

func (b stubBackbone) params() []*nn.Tensor { return nil }

// stubPredictor predicts exp(vals[root table]) for each plan.
func stubPredictor(vals map[string]float64) *Predictor {
	return &Predictor{
		cfg: Config{Kind: KindGCN},
		bb:  stubBackbone{vals},
		costHead: &nn.Linear{
			W: nn.FromData(1, 1, []float64{1}),
			B: nn.FromData(1, 1, []float64{0}),
		},
		sigmaY: 1,
	}
}

func scanPlan(table string) *plan.Plan {
	return &plan.Plan{Root: &plan.Node{Op: plan.OpTableScan, Table: table, PartitionsRead: 1, ColumnsAccessed: 1}}
}

func TestSelectPlanEmptyCandidates(t *testing.T) {
	p := stubPredictor(nil)
	best, costs, err := p.SelectPlanKeyed(nil, encoding.NoEnv(), encoding.EnvKey{})
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("want ErrNoCandidates, got %v", err)
	}
	if best != nil || costs != nil {
		t.Fatal("empty selection should return no plan and no costs")
	}
}

func TestSelectPlanSkipsNaN(t *testing.T) {
	p := stubPredictor(map[string]float64{
		"a": math.NaN(), "b": 2, "c": 1, "d": 3,
	})
	plans := []*plan.Plan{scanPlan("a"), scanPlan("b"), scanPlan("c"), scanPlan("d")}
	best, costs, err := p.SelectPlanKeyed(plans, encoding.NoEnv(), encoding.EnvKey{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(costs[0]) {
		t.Fatalf("estimate 0 should be NaN, got %g", costs[0])
	}
	if best != plans[2] {
		t.Fatalf("NaN must never win the argmin; want plan c, got %v", best)
	}
}

func TestSelectPlanAllNaN(t *testing.T) {
	p := stubPredictor(map[string]float64{"a": math.NaN(), "b": math.NaN()})
	plans := []*plan.Plan{scanPlan("a"), scanPlan("b")}
	best, costs, err := p.SelectPlanKeyed(plans, encoding.NoEnv(), encoding.EnvKey{})
	if !errors.Is(err, ErrNoFiniteEstimate) {
		t.Fatalf("want ErrNoFiniteEstimate, got %v", err)
	}
	if best != nil {
		t.Fatal("no plan should be chosen when every estimate is NaN")
	}
	if len(costs) != 2 {
		t.Fatalf("costs should still be returned for logging, got %d", len(costs))
	}
}

func TestTrainMeanEnvReflectsSamples(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	env := [4]float64{0.42, 0.06, 0.33, 0.58}
	var samples []Sample
	for i := 0; i < 30; i++ {
		p := &plan.Plan{Root: &plan.Node{Op: plan.OpTableScan, Table: "t", PartitionsRead: 1, ColumnsAccessed: 1}}
		samples = append(samples, Sample{Plan: p, Envs: encoding.FixedEnv(env), Cost: 100})
	}
	cfg := tinyConfig(KindXGBoost)
	pr, err := Train(cfg, enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := pr.TrainMeanEnv()
	for i := range env {
		if math.Abs(got[i]-env[i]) > 1e-9 {
			t.Fatalf("mean env %v, want %v", got, env)
		}
	}
}

func TestStrategies(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(60, 4)
	pr, err := Train(tinyConfig(KindXGBoost), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	ce := [4]float64{0.9, 0.01, 0.1, 0.2}
	cb := [4]float64{0.1, 0.2, 0.9, 0.9}
	for _, c := range []struct {
		s   Strategy
		env [4]float64
		ok  bool
	}{
		{StrategyClusterExpected, ce, true},
		{StrategyClusterCurrent, cb, true},
		{StrategyMeanEnv, pr.TrainMeanEnv(), true},
		{StrategyNoEnv, [4]float64{}, false},
	} {
		wantKey := encoding.NoEnvKey()
		if c.ok {
			wantKey = encoding.FixedEnvKey(c.env)
		}
		src, key := pr.EnvFor(c.s, ce, cb)
		for name, src := range map[string]encoding.EnvSource{"EnvFor": src, "EnvSourceFor": pr.EnvSourceFor(c.s, ce, cb)} {
			if env, ok := src(nil); env != c.env || ok != c.ok {
				t.Fatalf("%v: %s reads %v (observed %v), want %v (%v)", c.s, name, env, ok, c.env, c.ok)
			}
		}
		if key != wantKey || pr.EnvKeyFor(c.s, ce, cb) != wantKey {
			t.Fatalf("%v: EnvFor key %+v, EnvKeyFor %+v, want %+v: the key must name the source's vector",
				c.s, key, pr.EnvKeyFor(c.s, ce, cb), wantKey)
		}
	}
}

func TestNoEnvVariantIgnoresEnvironment(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(80, 5)
	cfg := tinyConfig(KindTCN)
	cfg.UseEnv = false
	pr, err := Train(cfg, enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := samples[0].Plan
	c1 := pr.PredictCost(p, encoding.FixedEnv([4]float64{0.1, 0.2, 0.9, 0.9}))
	c2 := pr.PredictCost(p, encoding.FixedEnv([4]float64{0.9, 0.0, 0.1, 0.1}))
	if c1 != c2 {
		t.Fatalf("NL variant sensitive to env: %g vs %g", c1, c2)
	}
}

func TestEnvAwareVariantRespondsToEnvironment(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	// Make the label strongly env-dependent.
	rng := simrand.New(6)
	var samples []Sample
	for i := 0; i < 200; i++ {
		idle := rng.Uniform(0.1, 0.9)
		env := [4]float64{idle, 0.05, 0.4, 0.5}
		p := &plan.Plan{Root: &plan.Node{Op: plan.OpTableScan, Table: "t", PartitionsRead: 1 + i%4, ColumnsAccessed: 2}}
		cost := 1000 * (1.6 - idle)
		samples = append(samples, Sample{Plan: p, Envs: encoding.FixedEnv(env), Cost: cost})
	}
	cfg := tinyConfig(KindTCN)
	cfg.Epochs = 15
	pr, err := Train(cfg, enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := samples[0].Plan
	busy := pr.PredictCost(p, encoding.FixedEnv([4]float64{0.1, 0.05, 0.4, 0.5}))
	idle := pr.PredictCost(p, encoding.FixedEnv([4]float64{0.9, 0.05, 0.4, 0.5}))
	if busy <= idle {
		t.Fatalf("predictor ignores environment: busy=%g idle=%g", busy, idle)
	}
}

func TestAdaptiveTrainingRuns(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, cands := synthetic(100, 7)
	cfg := tinyConfig(KindTCN)
	cfg.Adapt = true
	pr, err := Train(cfg, enc, samples, cands)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Metrics().FinalDomLoss <= 0 {
		t.Fatal("domain loss not recorded — adversarial branch inactive")
	}
	// Without candidates the domain branch is skipped.
	pr2, err := Train(cfg, enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr2.Metrics().FinalDomLoss != 0 {
		t.Fatal("domain loss recorded without candidates")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindTCN: "TCN", KindTransformer: "Transformer", KindGCN: "GCN", KindXGBoost: "XGBoost",
	} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
	if Kind(0).String() != "Unknown" {
		t.Fatal("zero kind")
	}
	for s, want := range map[Strategy]string{
		StrategyMeanEnv: "LOAM", StrategyClusterExpected: "LOAM-CE",
		StrategyClusterCurrent: "LOAM-CB", StrategyNoEnv: "LOAM-NL",
	} {
		if s.String() != want {
			t.Fatalf("%v -> %s", s, s.String())
		}
	}
}

func TestFlattenTree(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	p := &plan.Plan{Root: &plan.Node{
		Op: plan.OpHashJoin, JoinForm: plan.JoinInner,
		LeftCols:  []expr.ColumnRef{{Table: "a", Column: "k"}},
		RightCols: []expr.ColumnRef{{Table: "b", Column: "k"}},
		Children: []*plan.Node{
			{Op: plan.OpTableScan, Table: "a", PartitionsRead: 1},
			{Op: plan.OpTableScan, Table: "b", PartitionsRead: 1},
		},
	}}
	var ft encoding.FlatTree
	enc.EncodeTreeFlatInto(&ft, p, encoding.NoEnv())
	if ft.Len() != 3 || len(ft.Feats) != 3*enc.Dim() {
		t.Fatalf("flattened %d nodes, %d features", ft.Len(), len(ft.Feats))
	}
	if ft.Left[0] != 1 || ft.Right[0] != 2 {
		t.Fatalf("children indices %v %v", ft.Left, ft.Right)
	}
	if ft.Left[1] != -1 || ft.Right[2] != -1 {
		t.Fatal("leaf children should be -1")
	}
}

package predictor

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"loam/internal/encoding"
	"loam/internal/expr"
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

func TestTrainEmpty(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	_, err := Train(DefaultConfig(), enc, nil, nil)
	if !errors.Is(err, ErrNoTrainingData) {
		t.Fatalf("want ErrNoTrainingData, got %v", err)
	}
}

// TestTrainKinds: a zero Kind builds the TCN as KindTCN does, to the same
// weights; the baselines' former kinds, 2 to 4, are errors.
func TestTrainKinds(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(40, 8)
	var saved [2]bytes.Buffer
	for i, kind := range []Kind{0, KindTCN} {
		p, err := Train(tinyConfig(kind), enc, samples, nil)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		p.metrics = Metrics{}
		p.cfg.Kind = KindTCN
		if err := p.Save(&saved[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
		t.Fatal("a zero Kind trained other weights than KindTCN")
	}
	for kind := Kind(2); kind <= 4; kind++ {
		if p, err := Train(tinyConfig(kind), enc, samples, nil); err == nil || p != nil {
			t.Fatalf("kind %d: Train returned %v, %v; want an error", kind, p, err)
		}
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
	p, err := Train(tinyConfig(KindTCN), enc, samples, cands)
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

// stubPredictor predicts exp(vals[table]) for scanPlan(table) without an
// environment, so tests can hand SelectPlanKeyed exact (possibly NaN)
// estimates: an untrained tiny TCN whose plan memo holds those estimates,
// which scoring reads before running any forward.
func stubPredictor(vals map[string]float64) *Predictor {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	p := &Predictor{Head: Head{cfg: tinyConfig(KindTCN), sigmaY: 1}, enc: enc, encCfg: enc.Config()}
	rng := simrand.New(p.cfg.Seed)
	p.build(rng)
	p.Head.build(rng)
	var f encoding.Forest
	var ms memoScratch
	for table, v := range vals {
		enc.EncodeForestInto(&f, []*plan.Plan{scanPlan(table)}, encoding.NoEnv())
		p.memo.store(&ms, &f, []float64{math.Exp(v)})
	}
	return p
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
	cfg := tinyConfig(KindTCN)
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
	pr, err := Train(tinyConfig(KindTCN), enc, samples, nil)
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

func TestStrategyStrings(t *testing.T) {
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

package baselines

import (
	"errors"
	"math"
	"testing"

	"loam/internal/cluster"
	"loam/internal/encoding"
	"loam/internal/expr"
	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/simrand"
)

// synthetic is predictor's toy training set: cost grows with the number of
// scan nodes and the table's identity, so a working model must exceed chance
// at ranking.
func synthetic(n int, seed uint64) ([]predictor.Sample, []*plan.Plan) {
	rng := simrand.New(seed)
	var samples []predictor.Sample
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
		samples = append(samples, predictor.Sample{
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

func tinyConfig() predictor.Config {
	cfg := predictor.DefaultConfig()
	cfg.Epochs = 6
	cfg.Hidden = 12
	cfg.EmbDim = 8
	return cfg
}

// trainAll trains the TCN predictor and the three baselines on one set,
// each as Fig. 6 trains it.
func trainAll(t *testing.T, samples []predictor.Sample, cands []*plan.Plan) map[string]Model {
	t.Helper()
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	out := map[string]Model{}
	var err error
	if out["TCN"], err = predictor.Train(tinyConfig(), enc, samples, cands); err != nil {
		t.Fatalf("TCN: %v", err)
	}
	for name, train := range trainers {
		if out[name], err = train(tinyConfig(), enc, samples, cands); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out
}

var trainers = map[string]func(predictor.Config, *encoding.Encoder, []predictor.Sample, []*plan.Plan) (Model, error){
	"Transformer": TrainTransformer, "GCN": TrainGCN, "XGBoost": TrainXGBoost,
}

// meanEnv is m's e_r.
func meanEnv(m Model) encoding.EnvSource {
	return m.EnvSourceFor(predictor.StrategyMeanEnv, [4]float64{}, [4]float64{})
}

func TestTrainAllKinds(t *testing.T) {
	samples, cands := synthetic(120, 1)
	for name, m := range trainAll(t, samples, cands) {
		met := m.Metrics()
		if met.ModelBytes <= 0 {
			t.Fatalf("%s: model bytes %d", name, met.ModelBytes)
		}
		if met.TrainSeconds <= 0 {
			t.Fatalf("%s: train seconds %g", name, met.TrainSeconds)
		}
		// Predictions must be positive and finite.
		c := m.PredictCost(samples[0].Plan, samples[0].Envs)
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("%s: predicted %g", name, c)
		}
	}
	for name, train := range trainers {
		if m, err := train(tinyConfig(), enc(), nil, nil); m != nil || !errors.Is(err, predictor.ErrNoTrainingData) {
			t.Fatalf("%s on no samples: %v, %v; want ErrNoTrainingData", name, m, err)
		}
	}
}

// referenceCosts scores candidates one at a time through the training-path
// forward — a neural baseline's autograd embed under its cost head, the
// booster on the pooled vector — the ground truth PredictCost must
// reproduce bit for bit. For the neural baselines it also holds embedInfer's
// embedding to embed's, bit for bit.
func referenceCosts(t *testing.T, m Model, cands []*plan.Plan, envs encoding.EnvSource) []float64 {
	t.Helper()
	out := make([]float64, len(cands))
	switch m := m.(type) {
	case *neural:
		var s scratch
		got := make([]float64, m.Config().EmbDim)
		for i, c := range cands {
			emb := m.bb.embed(c, envs)
			m.bb.embedInfer(&s, got, c, envs)
			costsSameBits(t, "embedding", emb.Data, got)
			m.Costs(&nn.Scratch{}, out[i:i+1], emb.Data)
		}
	case *booster:
		var v view
		for i, c := range cands {
			encodeView(m.enc, &v, c, envs)
			out[i] = m.Denormalize(m.model.Predict(v.pooled(m.enc.Dim())))
		}
	default:
		t.Fatalf("%T is no baseline", m)
	}
	return out
}

func costsSameBits(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: value %d differs: %v (%#x) vs %v (%#x)",
				name, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// TestScoringPathsBitIdentical holds each baseline's PredictCost to its
// training-path forward, bit for bit, over eight unrelated plans.
func TestScoringPathsBitIdentical(t *testing.T) {
	samples, _ := synthetic(80, 21)
	cands := make([]*plan.Plan, 0, 8)
	for i := 0; i < 8; i++ {
		cands = append(cands, samples[i*3].Plan)
	}
	models := trainAll(t, samples, nil)
	for _, name := range []string{"Transformer", "GCN", "XGBoost"} {
		t.Run(name, func(t *testing.T) {
			m := models[name]
			envs := meanEnv(m)
			want := referenceCosts(t, m, cands, envs)
			for i, c := range cands {
				if got := m.PredictCost(c, envs); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("PredictCost(%d) = %v, want %v", i, got, want[i])
				}
			}
		})
	}
}

// TestScoringPathsBitIdenticalSharedSubtrees is TestScoringPathsBitIdentical
// over candidates that share subtrees, under a fixed environment, no
// environment, and a per-node RecordEnv source that observes only some
// nodes, so rows equal in everything but the environment must stay apart.
func TestScoringPathsBitIdenticalSharedSubtrees(t *testing.T) {
	samples, _ := synthetic(80, 21)
	cands := explorerStyleCands()
	perNode := map[*plan.Node]cluster.Metrics{}
	for _, c := range cands[:2] {
		c.Root.Walk(func(n *plan.Node) {
			perNode[n] = cluster.Metrics{CPUIdle: 0.5, IOWait: float64(len(perNode)%3) / 8, Load5: 2, MemUsage: 0.4}
		})
	}
	// The plan holding one subtree twice: two pointers, equal structure, which
	// the per-node source reads apart.
	for i, twin := range cands[6].Root.Children[0].Children {
		twin.Walk(func(n *plan.Node) {
			perNode[n] = cluster.Metrics{CPUIdle: 0.5, IOWait: 0.125 + 0.5*float64(i), Load5: 2, MemUsage: 0.4}
		})
	}
	models := trainAll(t, samples, nil)
	for _, name := range []string{"Transformer", "GCN", "XGBoost"} {
		t.Run(name, func(t *testing.T) {
			m := models[name]
			for _, src := range []struct {
				name string
				envs encoding.EnvSource
			}{
				{"FixedEnv", meanEnv(m)},
				{"NoEnv", encoding.NoEnv()},
				{"RecordEnv", encoding.RecordEnv(func(n *plan.Node) (cluster.Metrics, bool) { m, ok := perNode[n]; return m, ok })},
			} {
				want := referenceCosts(t, m, cands, src.envs)
				for i, c := range cands {
					if got := m.PredictCost(c, src.envs); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("%s: PredictCost(%d) = %v, want %v", src.name, i, got, want[i])
					}
				}
			}
		})
	}
}

// TestPredictCostZeroAlloc: after warm-up, a neural baseline's PredictCost on
// a binary predicate-free plan performs zero heap allocations — scratch from
// the pool, views and kernels reusing their buffers, no autograd graph.
func TestPredictCostZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; allocation counts are meaningless")
	}
	samples, _ := synthetic(60, 26)
	pl := &plan.Plan{Root: &plan.Node{Op: plan.OpSelect, Children: []*plan.Node{
		{Op: plan.OpTableScan, Table: "mid", PartitionsRead: 4, ColumnsAccessed: 2},
		{Op: plan.OpTableScan, Table: "big", PartitionsRead: 2, ColumnsAccessed: 3},
	}}}
	models := trainAll(t, samples, nil)
	for _, name := range []string{"GCN", "Transformer"} {
		m := models[name]
		envs := meanEnv(m)
		m.PredictCost(pl, envs) // warm the pooled scratch
		if allocs := testing.AllocsPerRun(100, func() { m.PredictCost(pl, envs) }); allocs != 0 {
			t.Fatalf("%s: warmed PredictCost allocated %.1f times per run, want 0", name, allocs)
		}
	}
}

// explorerStyleCands is predictor's candidate set shaped like the
// explorer's, where scoring a set at once could go wrong and scoring
// unrelated plans cannot: a base plan and clones that
// each differ from it in one place (a join operator, a join order rotation, a
// pushed predicate, a PartitionsRead, a ColumnsAccessed), a plan holding the
// same scan subtree twice as two pointers
// (index 6), a 3-way Union, which folds, and four more. deep (index 8)
// changes the root and a scan four levels below it, so its join shares the
// base join's layer-1 and layer-2 classes below a differing root; bare gives
// both exchanges one feature row over different children; then the base's
// join re-planned over the base's own exchange subtrees, by pointer as the
// explorer shares scan subplans; and a plan holding the base's right
// exchange both outside a folded Union and under it.
func explorerStyleCands() []*plan.Plan {
	scan := func(t string, parts int) *plan.Node {
		return &plan.Node{Op: plan.OpTableScan, Table: t, PartitionsRead: parts, ColumnsAccessed: 2}
	}
	c1, c2 := expr.ColumnRef{Table: "big", Column: "c1"}, expr.ColumnRef{Table: "mid", Column: "c2"}
	base := &plan.Plan{Root: &plan.Node{
		Op: plan.OpHashAggregate, AggFuncs: []plan.AggFunc{plan.AggSum}, AggCols: []expr.ColumnRef{c1}, GroupCols: []expr.ColumnRef{c2},
		Children: []*plan.Node{{
			Op: plan.OpHashJoin, JoinForm: plan.JoinInner, LeftCols: []expr.ColumnRef{c1}, RightCols: []expr.ColumnRef{c2},
			Children: []*plan.Node{
				{Op: plan.OpExchange, Parallelism: 64, Children: []*plan.Node{{
					Op: plan.OpFilter, Pred: expr.Compare(expr.FuncGT, c1, 3), Children: []*plan.Node{scan("big", 8)},
				}}},
				{Op: plan.OpExchange, Children: []*plan.Node{scan("mid", 2)}},
			},
		}},
	}}
	join := func(p *plan.Plan) *plan.Node { return p.Root.Children[0] }
	flip := base.Clone()
	join(flip).Op = plan.OpMergeJoin
	rotate := base.Clone()
	j := join(rotate)
	j.Children[0], j.Children[1] = j.Children[1], j.Children[0]
	j.LeftCols, j.RightCols = j.RightCols, j.LeftCols
	push := base.Clone()
	ex := join(push).Children[1]
	ex.Children[0] = &plan.Node{Op: plan.OpFilter, Pred: expr.Compare(expr.FuncLT, c2, 9), Children: []*plan.Node{ex.Children[0]}}
	parts := base.Clone()
	join(parts).Children[1].Children[0].PartitionsRead = 3
	cols := base.Clone()
	join(cols).Children[1].Children[0].ColumnsAccessed = 3
	twice := base.Clone()
	join(twice).Children[1] = join(twice).Children[0].Clone()
	union := &plan.Plan{Root: &plan.Node{Op: plan.OpUnion, Children: []*plan.Node{scan("mid", 2), scan("big", 8), scan("mid", 2)}}}
	deep := base.Clone()
	deep.Root.AggFuncs = []plan.AggFunc{plan.AggCount}
	join(deep).Children[0].Children[0].Children[0].PartitionsRead = 5
	bare := base.Clone()
	join(bare).Children[0].Parallelism = 0
	sharedJoin, sharedRoot := *join(base), *base.Root
	sharedJoin.Op = plan.OpMergeJoin
	sharedRoot.Children = []*plan.Node{&sharedJoin}
	right := join(base).Children[1]
	mixed := &plan.Node{Op: plan.OpHashJoin, JoinForm: plan.JoinInner, LeftCols: []expr.ColumnRef{c2}, RightCols: []expr.ColumnRef{c1}, Children: []*plan.Node{
		right, {Op: plan.OpUnion, Children: []*plan.Node{right, scan("big", 8), scan("mid", 2)}},
	}}
	return []*plan.Plan{base, flip, rotate, push, parts, cols, twice, union, deep, bare, {Root: &sharedRoot}, {Root: mixed}}
}

// Package baselines holds the learned cost models LOAM is compared against
// in §7.1 (Figs. 6 and 9): a Transformer and a GCN plan embedder under
// LOAM's own heads, trained by the predictor's one training loop
// (predictor.TrainHead), and XGBoost over a pooled plan vector. They are
// measured, never deployed: the serving predictor builds the TCN alone.
package baselines

import (
	"sync"

	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/simrand"
	"loam/internal/walltime"
	"loam/internal/xgb"
)

// Model is a trained cost model as the figures read it; a
// *predictor.Predictor is one too.
type Model interface {
	PredictCost(p *plan.Plan, envs encoding.EnvSource) float64
	EnvSourceFor(s predictor.Strategy, clusterExpected, clusterCurrent [4]float64) encoding.EnvSource
	Metrics() predictor.Metrics
}

// TrainTransformer trains two attention blocks over the preorder node
// sequence, pooled and projected, as predictor.Train trains LOAM.
func TrainTransformer(cfg predictor.Config, enc *encoding.Encoder, train []predictor.Sample, candPlans []*plan.Plan) (Model, error) {
	return trainNeural(cfg, newTransformer(simrand.New(cfg.Seed), enc, cfg.Hidden, 2, cfg.EmbDim), train, candPlans)
}

// TrainGCN trains cfg.Layers graph convolutions over the plan DAG, pooled
// and projected, as predictor.Train trains LOAM.
func TrainGCN(cfg predictor.Config, enc *encoding.Encoder, train []predictor.Sample, candPlans []*plan.Plan) (Model, error) {
	return trainNeural(cfg, newGCN(simrand.New(cfg.Seed), enc, cfg.Hidden, cfg.Layers, cfg.EmbDim), train, candPlans)
}

func trainNeural(cfg predictor.Config, bb backbone, train []predictor.Sample, candPlans []*plan.Plan) (Model, error) {
	h, err := predictor.TrainHead(cfg, train, candPlans, predictor.PerPlan(bb.params(), bb.embed), nil)
	if err != nil {
		return nil, err
	}
	return &neural{Head: h, bb: bb}, nil
}

// neural is a GCN or Transformer backbone under a predictor.Head.
type neural struct {
	predictor.Head
	bb backbone
}

// PredictCost allocates nothing once the pooled scratch is warm.
func (m *neural) PredictCost(pl *plan.Plan, envs encoding.EnvSource) float64 {
	if !m.Config().UseEnv {
		envs = encoding.NoEnv()
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if e := m.Config().EmbDim; len(s.emb) < e {
		s.emb = make([]float64, e)
	}
	m.bb.embedInfer(s, s.emb, pl, envs)
	var cost [1]float64
	m.Costs(&s.nn, cost[:], s.emb)
	return cost[0]
}

// scratch is one PredictCost call's reusable state.
type scratch struct {
	nn     nn.Scratch
	view   view
	tokens []float64
	emb    []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// TrainXGBoost fits a booster over a view's pooled vector to the
// normalized labels of predictor.NewHead. It has no domain classifier, so it
// reads no candidate plans.
func TrainXGBoost(cfg predictor.Config, enc *encoding.Encoder, train []predictor.Sample, _ []*plan.Plan) (Model, error) {
	sw := walltime.Start()
	h, err := predictor.NewHead(cfg, train)
	if err != nil {
		return nil, err
	}
	x := make([][]float64, len(train))
	y := make([]float64, len(train))
	var v view
	for i, sm := range train {
		envs := sm.Envs
		if !cfg.UseEnv {
			envs = encoding.NoEnv()
		}
		encodeView(enc, &v, sm.Plan, envs)
		x[i] = v.pooled(enc.Dim())
		y[i] = h.Normalize(sm.Cost)
	}
	m := &booster{Head: h, enc: enc, model: xgb.Train(xgb.DefaultConfig(), x, y)}
	m.metrics = predictor.Metrics{TrainSeconds: sw.Seconds(), ModelBytes: m.model.SizeBytes()}
	return m, nil
}

// booster is the trained XGBoost baseline.
type booster struct {
	predictor.Head
	enc     *encoding.Encoder
	model   *xgb.Model
	metrics predictor.Metrics
}

func (m *booster) PredictCost(pl *plan.Plan, envs encoding.EnvSource) float64 {
	if !m.Config().UseEnv {
		envs = encoding.NoEnv()
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	encodeView(m.enc, &s.view, pl, envs)
	return m.Denormalize(m.model.Predict(s.view.pooled(m.enc.Dim())))
}

func (m *booster) Metrics() predictor.Metrics { return m.metrics }

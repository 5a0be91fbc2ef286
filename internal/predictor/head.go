package predictor

import (
	"math"

	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/simrand"
	"loam/internal/telemetry"
	"loam/internal/walltime"
)

// Head is Fig. 3 past PlanEmb: the cost head (CostPred), the domain
// classifier (DomClf) behind the gradient reversal layer, and the label
// normalization and e_r (§5) they are trained under. A Predictor is a Head
// over the TCN; the §7.1 baselines (internal/baselines) are Heads over
// theirs. TrainHead is the one loop that trains them all.
type Head struct {
	cfg      Config
	costHead *nn.Linear
	domHid   *nn.Linear
	domOut   *nn.Linear
	lambda   float64

	// Label normalization: y = (ln cost − muY)/sigmaY.
	muY, sigmaY float64
	// trainMeanEnv is the expected machine-level environment observed across
	// training plans — the §5 representative instance e_r.
	trainMeanEnv [4]float64

	metrics Metrics
	tel     predictorTelemetry
}

// Minibatch is PlanEmb of Fig. 3 as TrainHead trains it.
type Minibatch interface {
	// Params lists the backbone's trainable tensors in a fixed order.
	Params() []*nn.Tensor
	// Embed embeds each default under its own source and each drawn plan
	// under candEnv. It returns the defaults' embeddings, the cost head's
	// input, and when plans were drawn every embedding, defaults then drawn
	// plans, the domain head's input.
	Embed(defaults []Sample, drawn []*plan.Plan, candEnv encoding.EnvSource) (embDef, embAll *nn.Tensor)
	// Backward runs after the heads' autograd backward and adds to Params'
	// gradients what Embed's graph does not carry.
	Backward()
}

// PerPlan is the Minibatch that embeds plan by plan through embed's autograd
// graph. The §7.1 neural baselines train through it, and it is the oracle of
// the TCN's forest trainer (TestTrainTCNForestMatchesAutograd).
func PerPlan(params []*nn.Tensor, embed func(*plan.Plan, encoding.EnvSource) *nn.Tensor) Minibatch {
	return perPlan{params, embed}
}

type perPlan struct {
	params []*nn.Tensor
	embed  func(*plan.Plan, encoding.EnvSource) *nn.Tensor
}

func (m perPlan) Params() []*nn.Tensor { return m.params }

func (m perPlan) Embed(defaults []Sample, drawn []*plan.Plan, candEnv encoding.EnvSource) (embDef, embAll *nn.Tensor) {
	embs := make([]*nn.Tensor, 0, len(defaults)+len(drawn))
	for _, sm := range defaults {
		embs = append(embs, m.embed(sm.Plan, sm.Envs))
	}
	embDef = nn.ConcatRows(embs...)
	if len(drawn) == 0 {
		return embDef, nil
	}
	for _, cp := range drawn {
		embs = append(embs, m.embed(cp, candEnv))
	}
	return embDef, nn.ConcatRows(embs...)
}

func (perPlan) Backward() {}

// NewHead fits a Head's label normalization and e_r to train: all the XGBoost
// baseline takes of it.
func NewHead(cfg Config, train []Sample) (Head, error) {
	h := Head{cfg: cfg}
	if len(train) == 0 {
		return h, ErrNoTrainingData
	}
	h.fitNormalization(train)
	h.fitMeanEnv(train)
	return h, nil
}

// TrainHead trains a NewHead's CostPred and DomClf, and mb's backbone with
// them, on the Eq.-(1) loss over minibatches of labeled default plans and,
// under cfg.Adapt, unlabeled candPlans (§4); mb is its one backbone-specific
// input. It reports into reg (nil trains silently): sample and domain-plan
// counts, per-epoch cost losses, adversarial steps, final losses, and wall
// training time (counts deterministic, seconds reporting-only).
func TrainHead(cfg Config, train []Sample, candPlans []*plan.Plan, mb Minibatch, reg *telemetry.Registry) (Head, error) {
	sw := walltime.Start()
	h, err := NewHead(cfg, train)
	if err != nil {
		return h, err
	}
	h.Instrument(reg)
	h.tel.trainRuns.Inc()
	h.tel.trainSamples.Add(int64(len(train)))
	h.tel.trainDomain.Add(int64(len(candPlans)))
	span := h.tel.trainTime.Start()
	defer span.Stop()

	rng := simrand.New(cfg.Seed)
	h.build(rng)
	params := append(append([]*nn.Tensor{}, mb.Params()...), h.params()...)
	h.trainLoop(rng, nn.NewAdam(params, cfg.LR), mb, train, candPlans)
	h.metrics.ModelBytes = nn.ParamBytes(params)
	h.metrics.Epochs = cfg.Epochs
	h.metrics.TrainSeconds = sw.Seconds()
	return h, nil
}

// build constructs the cost head and the domain classifier from rng.
func (h *Head) build(rng *simrand.RNG) {
	h.costHead = nn.NewLinear(rng.Derive("cost"), h.cfg.EmbDim, 1)
	h.domHid = nn.NewLinear(rng.Derive("domHid"), h.cfg.EmbDim, h.cfg.Hidden)
	h.domOut = nn.NewLinear(rng.Derive("domOut"), h.cfg.Hidden, 2)
}

// params lists the heads' tensors: the cost head, then the domain classifier.
func (h *Head) params() []*nn.Tensor {
	params := append([]*nn.Tensor{}, h.costHead.Params()...)
	params = append(params, h.domHid.Params()...)
	return append(params, h.domOut.Params()...)
}

func (h *Head) trainLoop(rng *simrand.RNG, opt *nn.Adam, mb Minibatch, train []Sample, candPlans []*plan.Plan) {
	cfg := h.cfg
	adapt := cfg.Adapt && len(candPlans) > 0
	bd := cfg.BatchDefault
	if bd <= 0 {
		bd = 16
	}
	bc := cfg.BatchCandidate
	if bc <= 0 {
		bc = 6
	}
	candEnv := encoding.FixedEnv(h.trainMeanEnv)
	if !cfg.UseEnv {
		candEnv = encoding.NoEnv()
	}

	var targets []float64
	var labels []int
	var defaults []Sample
	var drawn []*plan.Plan

	// EMA-based automatic loss-weight balancing (wc, wd of Eq. 1).
	emaCost, emaDom := 1.0, 1.0
	const emaBeta = 0.9

	steps := (len(train) + bd - 1) / bd
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// GRL schedule from Ganin & Lempitsky: λ = 2/(1+e^{-10p}) − 1.
		prog := float64(epoch) / math.Max(1, float64(cfg.Epochs-1))
		h.lambda = 2/(1+math.Exp(-10*prog)) - 1

		order := rng.Perm(len(train))
		for s := 0; s < steps; s++ {
			lo := s * bd
			hi := lo + bd
			if hi > len(train) {
				hi = len(train)
			}

			targets, labels, defaults, drawn = targets[:0], labels[:0], defaults[:0], drawn[:0]
			for _, i := range order[lo:hi] {
				sm := train[i]
				if !cfg.UseEnv {
					sm.Envs = encoding.NoEnv()
				}
				defaults = append(defaults, sm)
				targets = append(targets, h.Normalize(sm.Cost))
				labels = append(labels, 0)
			}
			if adapt {
				for j := 0; j < bc; j++ {
					drawn = append(drawn, candPlans[rng.Intn(len(candPlans))])
					labels = append(labels, 1)
				}
			}
			embDef, embAll := mb.Embed(defaults, drawn, candEnv)
			costLoss := nn.MSE(h.costHead.Forward(embDef), targets)

			var loss *nn.Tensor
			var domLossVal float64
			if adapt {
				domLogits := h.domOut.Forward(nn.ReLU(h.domHid.Forward(nn.GRL(embAll, &h.lambda))))
				domLoss := nn.CrossEntropy(domLogits, labels)
				domLossVal = domLoss.Data[0]

				emaCost = emaBeta*emaCost + (1-emaBeta)*costLoss.Data[0]
				emaDom = emaBeta*emaDom + (1-emaBeta)*domLossVal
				wd := 0.0
				if emaDom > 1e-9 {
					wd = 0.5 * emaCost / emaDom
				}
				loss = nn.AddScalarLoss([]float64{1, wd}, costLoss, domLoss)
			} else {
				loss = costLoss
			}

			opt.ZeroGrad()
			loss.Backward()
			mb.Backward()
			opt.Step()

			h.metrics.FinalCostLoss = costLoss.Data[0]
			h.metrics.FinalDomLoss = domLossVal
			if adapt {
				h.tel.adaptSteps.Inc()
			}
		}
		h.tel.epochCostLoss.Observe(h.metrics.FinalCostLoss)
		opt.DecayLR(cfg.LRDecay)
	}
	h.tel.finalCostLoss.Set(h.metrics.FinalCostLoss)
	h.tel.finalDomLoss.Set(h.metrics.FinalDomLoss)
}

// Costs writes into costs the estimates of the len(costs) embeddings held
// row-major in emb: the cost head's forward, denormalized. It scores each
// row alone, so an estimate never depends on what it was scored beside.
func (h *Head) Costs(s *nn.Scratch, costs, emb []float64) {
	e := h.costHead.W.R
	s.Reset()
	out := h.costHead.ForwardInfer(s, nn.Mat{R: len(costs), C: e, Data: emb[:len(costs)*e]})
	for i := range costs {
		costs[i] = h.Denormalize(out.Data[i])
	}
}

func (h *Head) fitNormalization(train []Sample) {
	n := float64(len(train))
	mu := 0.0
	for _, sm := range train {
		mu += safeLog(sm.Cost)
	}
	mu /= n
	v := 0.0
	for _, sm := range train {
		d := safeLog(sm.Cost) - mu
		v += d * d
	}
	h.muY = mu
	h.sigmaY = math.Sqrt(v/n) + 1e-6
}

func (h *Head) fitMeanEnv(train []Sample) {
	var sum [4]float64
	count := 0.0
	for _, sm := range train {
		sm.Plan.Root.Walk(func(n *plan.Node) {
			env, ok := sm.Envs(n)
			if !ok {
				return
			}
			for i := range sum {
				sum[i] += env[i]
			}
			count++
		})
	}
	if count > 0 {
		for i := range sum {
			h.trainMeanEnv[i] = sum[i] / count
		}
	}
}

// Normalize maps a cost to the label the heads train on.
func (h *Head) Normalize(cost float64) float64 {
	return (safeLog(cost) - h.muY) / h.sigmaY
}

// Denormalize maps a label back to a cost.
func (h *Head) Denormalize(y float64) float64 {
	return math.Exp(y*h.sigmaY + h.muY)
}

func safeLog(v float64) float64 {
	if v < 1e-9 {
		v = 1e-9
	}
	return math.Log(v)
}

// Metrics returns training cost/footprint measurements.
func (h *Head) Metrics() Metrics { return h.metrics }

// TrainMeanEnv returns the representative environment instance e_r (§5):
// per-feature means observed across training plans.
func (h *Head) TrainMeanEnv() [4]float64 { return h.trainMeanEnv }

// Config returns the hyperparameter configuration the model was trained
// with. The model lifecycle derives retrain configurations from it — same
// architecture and budgets, a bumped seed per trained successor — so
// retrained models are deterministic descendants of the incumbent.
func (h *Head) Config() Config { return h.cfg }

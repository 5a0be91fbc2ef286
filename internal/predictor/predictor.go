// Package predictor implements LOAM's adaptive cost predictor (§4, Fig. 3):
// a plan-embedding backbone (PlanEmb), a cost prediction head (CostPred),
// and a domain classifier (DomClf) behind a gradient reversal layer, trained
// jointly with the Eq.-(1) loss so the embedding is both discriminative for
// cost and invariant between historically executed default plans and
// knob-tuned candidate plans — eliminating conventional refinement
// (Challenge C3).
package predictor

import (
	"errors"
	"math"

	"loam/internal/encoding"
	"loam/internal/floatsafe"
	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/simrand"
	"loam/internal/telemetry"
	"loam/internal/walltime"
	"loam/internal/xgb"
)

// Sample is one training example: a historically executed default plan with
// its logged per-node execution environment and observed CPU cost.
type Sample struct {
	Plan *plan.Plan
	Envs encoding.EnvSource
	Cost float64
}

// Config are the predictor hyperparameters. Defaults follow the paper's
// setup (initial LR 0.01, 0.99 exponential decay; no per-project tuning).
type Config struct {
	Kind   Kind
	Hidden int
	EmbDim int
	Layers int
	Epochs int
	LR     float64
	// LRDecay is the per-epoch exponential decay factor.
	LRDecay float64
	// Adapt enables the domain-adversarial training; false yields LOAM-NA.
	Adapt bool
	// UseEnv includes execution-environment features; false yields LOAM-NL.
	UseEnv bool
	// BatchDefault and BatchCandidate size each mini-batch's two domains.
	BatchDefault   int
	BatchCandidate int
	Seed           uint64
}

// DefaultConfig returns the LOAM defaults.
func DefaultConfig() Config {
	return Config{
		Kind:           KindTCN,
		Hidden:         32,
		EmbDim:         24,
		Layers:         3,
		Epochs:         12,
		LR:             0.003,
		LRDecay:        0.99,
		Adapt:          true,
		UseEnv:         true,
		BatchDefault:   16,
		BatchCandidate: 6,
		Seed:           7,
	}
}

// Metrics reports training cost and footprint (§7.2.1, Fig. 9).
type Metrics struct {
	TrainSeconds  float64
	ModelBytes    int
	Epochs        int
	FinalCostLoss float64
	FinalDomLoss  float64
}

// Predictor is a trained adaptive cost predictor.
type Predictor struct {
	cfg    Config
	enc    *encoding.Encoder
	encCfg encoding.Config

	bb       backbone
	costHead *nn.Linear
	domHid   *nn.Linear
	domOut   *nn.Linear
	lambda   float64

	xgbModel *xgb.Model

	// Label normalization: y = (ln cost − muY)/sigmaY.
	muY, sigmaY float64
	// trainMeanEnv is the expected machine-level environment observed across
	// training plans — the §5 representative instance e_r.
	trainMeanEnv [4]float64

	// cache, when non-nil, memoizes plans' cost estimates for keyed
	// environment sources (see cache.go). Configured via EnablePlanCache,
	// typically by the deployment layer; nil disables caching entirely.
	cache *planCache

	metrics Metrics
	tel     predictorTelemetry

	// modelVersion is the lifecycle lineage number this predictor serves as
	// (0 = untracked). It rides inside the serialized snapshot so
	// SaveModel/DeployFromModel and the durable store round-trip lineage;
	// see serialize.go.
	modelVersion int
}

// predictorTelemetry holds the predictor's resolved instruments; every field
// is a nil-safe no-op until Instrument wires a registry, so untelemetered
// predictors pay nothing. Telemetry is runtime wiring, never serialized:
// Save/Load ignore it, and restored predictors re-wire via Instrument.
type predictorTelemetry struct {
	trainRuns     *telemetry.Counter
	trainSamples  *telemetry.Counter
	trainDomain   *telemetry.Counter
	adaptSteps    *telemetry.Counter
	epochCostLoss *telemetry.Histogram
	finalCostLoss *telemetry.Gauge
	finalDomLoss  *telemetry.Gauge
	trainTime     *telemetry.Timer

	selectCalls      *telemetry.Counter
	selectEmpty      *telemetry.Counter
	selectNaN        *telemetry.Counter
	selectNoFinite   *telemetry.Counter
	selectCandidates *telemetry.Histogram
	selectTime       *telemetry.Timer

	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	cacheEvictions *telemetry.Counter
	cacheFlushes   *telemetry.Counter
	cacheSize      *telemetry.Gauge
}

// Instrument wires the predictor's training and plan-selection metrics into
// reg. Safe to call on a freshly loaded predictor before serving; must not
// race with in-flight SelectPlan calls.
func (p *Predictor) Instrument(reg *telemetry.Registry) {
	p.tel = predictorTelemetry{
		trainRuns:     reg.Counter("train.runs"),
		trainSamples:  reg.Counter("train.samples"),
		trainDomain:   reg.Counter("train.domain_plans"),
		adaptSteps:    reg.Counter("train.adapt_steps"),
		epochCostLoss: reg.Histogram("train.epoch_cost_loss", telemetry.ExpBuckets(1e-3, 10, 7)),
		finalCostLoss: reg.Gauge("train.final_cost_loss"),
		finalDomLoss:  reg.Gauge("train.final_dom_loss"),
		trainTime:     reg.Timer("train.time"),

		selectCalls:      reg.Counter("predictor.selectplan.calls"),
		selectEmpty:      reg.Counter("predictor.selectplan.empty"),
		selectNaN:        reg.Counter("predictor.selectplan.nan_estimates"),
		selectNoFinite:   reg.Counter("predictor.selectplan.no_finite"),
		selectCandidates: reg.Histogram("predictor.selectplan.candidates", telemetry.LinearBuckets(1, 1, 8)),
		selectTime:       reg.Timer("predictor.selectplan.time"),

		cacheHits:      reg.Counter("predictor.cache.hits"),
		cacheMisses:    reg.Counter("predictor.cache.misses"),
		cacheEvictions: reg.Counter("predictor.cache.evictions"),
		cacheFlushes:   reg.Counter("predictor.cache.flushes"),
		cacheSize:      reg.Gauge("predictor.cache.size"),
	}
}

// ErrNoTrainingData is returned when the training set is empty.
var ErrNoTrainingData = errors.New("predictor: no training data")

// ErrNoCandidates is returned by SelectPlan when the candidate set is empty.
var ErrNoCandidates = errors.New("predictor: no candidate plans")

// ErrNoFiniteEstimate is returned by SelectPlan when every candidate's cost
// estimate is NaN, so no plan can be preferred over another.
var ErrNoFiniteEstimate = errors.New("predictor: no candidate has a finite cost estimate")

// Train fits the predictor. candPlans is a small set of *unexecuted*
// candidate plans used purely for domain alignment — they carry no cost
// labels (§4, Adaptive Training Paradigm). It may be empty when cfg.Adapt is
// false.
func Train(cfg Config, enc *encoding.Encoder, train []Sample, candPlans []*plan.Plan) (*Predictor, error) {
	return TrainInstrumented(cfg, enc, train, candPlans, nil)
}

// TrainInstrumented is Train reporting into a telemetry registry: sample and
// domain-plan counts, per-epoch cost losses, adversarial adaptation steps,
// final losses, and wall training time (count deterministic, seconds
// reporting-only). A nil registry trains silently.
func TrainInstrumented(cfg Config, enc *encoding.Encoder, train []Sample, candPlans []*plan.Plan, reg *telemetry.Registry) (*Predictor, error) {
	if len(train) == 0 {
		return nil, ErrNoTrainingData
	}
	sw := walltime.Start()
	p := &Predictor{cfg: cfg, enc: enc, encCfg: enc.Config()}
	p.Instrument(reg)
	p.tel.trainRuns.Inc()
	p.tel.trainSamples.Add(int64(len(train)))
	p.tel.trainDomain.Add(int64(len(candPlans)))
	span := p.tel.trainTime.Start()
	defer span.Stop()
	p.fitNormalization(train)
	p.fitMeanEnv(train)

	if cfg.Kind == KindXGBoost {
		if err := p.trainXGB(train); err != nil {
			return nil, err
		}
		p.metrics.TrainSeconds = sw.Seconds()
		p.metrics.ModelBytes = p.xgbModel.SizeBytes()
		return p, nil
	}

	rng := simrand.New(cfg.Seed)
	p.build(rng)
	p.fit(rng, train, candPlans)
	p.metrics.TrainSeconds = sw.Seconds()
	return p, nil
}

// fit trains the built network: Adam over every parameter, then trainLoop.
func (p *Predictor) fit(rng *simrand.RNG, train []Sample, candPlans []*plan.Plan) {
	params := p.allParams()
	p.trainLoop(rng, nn.NewAdam(params, p.cfg.LR), train, candPlans)
	p.metrics.ModelBytes = nn.ParamBytes(params)
	p.metrics.Epochs = p.cfg.Epochs
}

// build constructs the neural architecture p.cfg describes over p.enc —
// backbone, cost head, domain classifier — initialized from rng. Train fits
// it; Load overwrites its weights, after checkParams has sized it by arithmetic.
func (p *Predictor) build(rng *simrand.RNG) {
	cfg := p.cfg
	switch cfg.Kind {
	case KindTransformer:
		p.bb = newTransformer(rng, p.enc, cfg.Hidden, 2, cfg.EmbDim)
	case KindGCN:
		p.bb = newGCN(rng, p.enc, cfg.Hidden, cfg.Layers, cfg.EmbDim)
	default:
		p.bb = newTCN(rng, p.enc, cfg.Hidden, cfg.Layers, cfg.EmbDim)
	}
	p.costHead = nn.NewLinear(rng.Derive("cost"), cfg.EmbDim, 1)
	p.domHid = nn.NewLinear(rng.Derive("domHid"), cfg.EmbDim, cfg.Hidden)
	p.domOut = nn.NewLinear(rng.Derive("domOut"), cfg.Hidden, 2)
}

func (p *Predictor) trainLoop(rng *simrand.RNG, opt *nn.Adam, train []Sample, candPlans []*plan.Plan) {
	cfg := p.cfg
	adapt := cfg.Adapt && len(candPlans) > 0
	bd := cfg.BatchDefault
	if bd <= 0 {
		bd = 16
	}
	bc := cfg.BatchCandidate
	if bc <= 0 {
		bc = 6
	}
	candEnv := encoding.FixedEnv(p.trainMeanEnv)
	if !cfg.UseEnv {
		candEnv = encoding.NoEnv()
	}

	// A backbone that trains a minibatch as one forest does; the others embed
	// plan by plan through the autograd graph.
	var tr *tcnTrainer
	if bt, ok := p.bb.(batchTrainer); ok {
		tr = bt.trainer()
	}
	var targets []float64
	var labels []int
	var drawn []*plan.Plan

	// EMA-based automatic loss-weight balancing (wc, wd of Eq. 1).
	emaCost, emaDom := 1.0, 1.0
	const emaBeta = 0.9

	steps := (len(train) + bd - 1) / bd
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// GRL schedule from Ganin & Lempitsky: λ = 2/(1+e^{-10p}) − 1.
		prog := float64(epoch) / math.Max(1, float64(cfg.Epochs-1))
		p.lambda = 2/(1+math.Exp(-10*prog)) - 1

		order := rng.Perm(len(train))
		for s := 0; s < steps; s++ {
			lo := s * bd
			hi := lo + bd
			if hi > len(train) {
				hi = len(train)
			}
			batch := order[lo:hi]

			targets, labels, drawn = targets[:0], labels[:0], drawn[:0]
			for _, i := range batch {
				targets = append(targets, p.normalize(train[i].Cost))
				labels = append(labels, 0)
			}
			if adapt {
				for j := 0; j < bc; j++ {
					drawn = append(drawn, candPlans[rng.Intn(len(candPlans))])
					labels = append(labels, 1)
				}
			}
			var embDef, embAll *nn.Tensor
			if tr != nil {
				embDef, embAll = tr.forward(train, batch, drawn, candEnv, cfg.UseEnv)
			} else {
				embDef, embAll = p.embedEach(train, batch, drawn, candEnv)
			}
			costLoss := nn.MSE(p.costHead.Forward(embDef), targets)

			var loss *nn.Tensor
			var domLossVal float64
			if adapt {
				domLogits := p.domOut.Forward(nn.ReLU(p.domHid.Forward(nn.GRL(embAll, &p.lambda))))
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
			if tr != nil {
				tr.backward()
			}
			opt.Step()

			p.metrics.FinalCostLoss = costLoss.Data[0]
			p.metrics.FinalDomLoss = domLossVal
			if adapt {
				p.tel.adaptSteps.Inc()
			}
		}
		p.tel.epochCostLoss.Observe(p.metrics.FinalCostLoss)
		opt.DecayLR(cfg.LRDecay)
	}
	p.tel.finalCostLoss.Set(p.metrics.FinalCostLoss)
	p.tel.finalDomLoss.Set(p.metrics.FinalDomLoss)
}

// embedEach embeds a minibatch plan by plan through the backbone's autograd
// graph: the defaults, each under its own environment source (none without
// UseEnv), as the cost head's input, and when plans were drawn, the defaults
// and then each drawn plan under candEnv as the domain head's.
func (p *Predictor) embedEach(train []Sample, batch []int, drawn []*plan.Plan, candEnv encoding.EnvSource) (embDef, embAll *nn.Tensor) {
	embs := make([]*nn.Tensor, 0, len(batch)+len(drawn))
	for _, i := range batch {
		sm := train[i]
		envs := sm.Envs
		if !p.cfg.UseEnv {
			envs = encoding.NoEnv()
		}
		embs = append(embs, p.bb.embed(sm.Plan, envs))
	}
	embDef = nn.ConcatRows(embs...)
	if len(drawn) == 0 {
		return embDef, nil
	}
	for _, cp := range drawn {
		embs = append(embs, p.bb.embed(cp, candEnv))
	}
	return embDef, nn.ConcatRows(embs...)
}

func (p *Predictor) trainXGB(train []Sample) error {
	x := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, sm := range train {
		envs := sm.Envs
		if !p.cfg.UseEnv {
			envs = encoding.NoEnv()
		}
		x[i] = p.enc.EncodeFlat(sm.Plan, envs)
		y[i] = p.normalize(sm.Cost)
	}
	p.xgbModel = xgb.Train(xgb.DefaultConfig(), x, y)
	return nil
}

func (p *Predictor) fitNormalization(train []Sample) {
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
	p.muY = mu
	p.sigmaY = math.Sqrt(v/n) + 1e-6
}

func (p *Predictor) fitMeanEnv(train []Sample) {
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
			p.trainMeanEnv[i] = sum[i] / count
		}
	}
}

func (p *Predictor) normalize(cost float64) float64 {
	return (safeLog(cost) - p.muY) / p.sigmaY
}

func (p *Predictor) denormalize(y float64) float64 {
	return math.Exp(y*p.sigmaY + p.muY)
}

func safeLog(v float64) float64 {
	if v < 1e-9 {
		v = 1e-9
	}
	return math.Log(v)
}

// Metrics returns training cost/footprint measurements.
func (p *Predictor) Metrics() Metrics { return p.metrics }

// TrainMeanEnv returns the representative environment instance e_r (§5):
// per-feature means observed across training plans.
func (p *Predictor) TrainMeanEnv() [4]float64 { return p.trainMeanEnv }

// Config returns the hyperparameter configuration the predictor was trained
// with (after Train's normalization). The model lifecycle derives retrain
// configurations from it — same architecture and budgets, a bumped seed per
// trained successor — so retrained models are deterministic descendants of
// the incumbent.
func (p *Predictor) Config() Config { return p.cfg }

// EncoderConfig returns the encoder configuration the predictor was trained
// with. After predictor.Load it is the configuration restored from the
// snapshot — callers rebinding a restored model to a serving deployment must
// rebuild their encoder from it, not from encoding.DefaultConfig.
func (p *Predictor) EncoderConfig() encoding.Config { return p.encCfg }

// PredictCost estimates a plan's CPU cost under the given environment
// source. It is safe for concurrent use once training has returned: the
// forward pass only reads the trained weights, and each call borrows private
// scratch buffers from a pool instead of building an autograd graph. The
// inference forward is bit-identical to the training-path forward (see
// internal/nn/infer.go), so moving serving onto it changed no estimate.
func (p *Predictor) PredictCost(pl *plan.Plan, envs encoding.EnvSource) float64 {
	if !p.cfg.UseEnv {
		envs = encoding.NoEnv()
	}
	if p.cfg.Kind == KindXGBoost {
		return p.denormalize(p.xgbModel.Predict(p.enc.EncodeFlat(pl, envs)))
	}
	s := getScratch()
	defer putScratch(s)
	var cost [1]float64
	s.one[0] = pl
	p.score(s, cost[:], s.one[:], envs, encoding.EnvKey{})
	s.one[0] = nil
	return cost[0]
}

// Strategy selects how environment features are set at inference time, when
// the execution environment is unobservable (§5).
type Strategy int

// Inference strategies of §7.2.5.
const (
	// StrategyMeanEnv predicts under the representative average-case
	// machine-level environment from training history (LOAM).
	StrategyMeanEnv Strategy = iota + 1
	// StrategyClusterExpected uses expected cluster-wide conditions fitted
	// over the past 24 h (LOAM-CE).
	StrategyClusterExpected
	// StrategyClusterCurrent uses the cluster-wide conditions at the moment
	// of optimization (LOAM-CB).
	StrategyClusterCurrent
	// StrategyNoEnv supplies no environment features (LOAM-NL; only
	// meaningful for predictors trained with UseEnv=false).
	StrategyNoEnv
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyMeanEnv:
		return "LOAM"
	case StrategyClusterExpected:
		return "LOAM-CE"
	case StrategyClusterCurrent:
		return "LOAM-CB"
	case StrategyNoEnv:
		return "LOAM-NL"
	default:
		return "Unknown"
	}
}

// EnvSourceFor materializes a strategy into an EnvSource. clusterExpected
// and clusterCurrent carry the cluster-side observations the CE/CB variants
// rely on; they are ignored by the other strategies.
func (p *Predictor) EnvSourceFor(s Strategy, clusterExpected, clusterCurrent [4]float64) encoding.EnvSource {
	switch s {
	case StrategyClusterExpected:
		return encoding.FixedEnv(clusterExpected)
	case StrategyClusterCurrent:
		return encoding.FixedEnv(clusterCurrent)
	case StrategyNoEnv:
		return encoding.NoEnv()
	default:
		return encoding.FixedEnv(p.trainMeanEnv)
	}
}

// SelectPlan returns the candidate with the lowest estimated cost, along
// with all estimates. The candidates are embedded together — by the TCN as
// one forest, one row per layer class convolved — then scored in a single
// batched pass through the cost head (scoreCandidates). Costs are
// bit-identical to PredictCost on each candidate, and ties and NaN handling
// follow floatsafe.ArgMin, so the chosen plan never depends on batching.
//
// An empty candidate set returns ErrNoCandidates; candidates whose estimate
// is NaN are skipped when choosing, and if every estimate is NaN the error is
// ErrNoFiniteEstimate. The costs slice is returned even on
// ErrNoFiniteEstimate so callers can log the estimates.
func (p *Predictor) SelectPlan(cands []*plan.Plan, envs encoding.EnvSource) (best *plan.Plan, costs []float64, err error) {
	return p.SelectPlanKeyed(cands, envs, encoding.EnvKey{})
}

// SelectPlanKeyed is SelectPlan for a keyed environment source: key must
// identify envs (see EnvKeyFor), which makes candidate embeddings eligible
// for the plan cache. An unkeyed (zero) key degrades to uncached scoring.
func (p *Predictor) SelectPlanKeyed(cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) (best *plan.Plan, costs []float64, err error) {
	p.tel.selectCalls.Inc()
	if len(cands) == 0 {
		p.tel.selectEmpty.Inc()
		return nil, nil, ErrNoCandidates
	}
	p.tel.selectCandidates.Observe(float64(len(cands)))
	span := p.tel.selectTime.Start()
	defer span.Stop()
	if !p.cfg.UseEnv {
		envs = encoding.NoEnv()
		key = encoding.NoEnvKey()
	}
	costs = make([]float64, len(cands))
	p.scoreCandidates(costs, cands, envs, key)
	nans := int64(0)
	for i := range costs {
		if math.IsNaN(costs[i]) {
			nans++
		}
	}
	p.tel.selectNaN.Add(nans)
	bestIdx := floatsafe.ArgMin(costs)
	if bestIdx < 0 {
		p.tel.selectNoFinite.Inc()
		return nil, costs, ErrNoFiniteEstimate
	}
	return cands[bestIdx], costs, nil
}

// EnvKeyFor returns the cache key identifying EnvSourceFor(s, ...) with the
// same arguments. The two must stay in lockstep: a key that does not match
// its source would poison the plan cache with mismatched embeddings.
func (p *Predictor) EnvKeyFor(s Strategy, clusterExpected, clusterCurrent [4]float64) encoding.EnvKey {
	switch s {
	case StrategyClusterExpected:
		return encoding.FixedEnvKey(clusterExpected)
	case StrategyClusterCurrent:
		return encoding.FixedEnvKey(clusterCurrent)
	case StrategyNoEnv:
		return encoding.NoEnvKey()
	default:
		return encoding.FixedEnvKey(p.trainMeanEnv)
	}
}

// EnablePlanCache installs a fresh plan cache — each plan's cost estimate,
// keyed by its fingerprint and the environment key — holding up to capacity
// entries (capacity <= 0 disables caching). Any previous cache is discarded
// wholesale, so calling this after retraining or on deployment is the
// cache-invalidation mechanism. Not safe to call concurrently with
// serving.
func (p *Predictor) EnablePlanCache(capacity int) {
	if capacity <= 0 {
		p.cache = nil
		return
	}
	p.cache = newPlanCache(capacity, &p.tel)
}

// SetPlanCacheCapacity resizes the plan cache in place to hold up to
// capacity entries, evicting strict-LRU tail entries when shrinking. This
// is the external-governance seam the fleet registry's global cache budget
// uses: unlike EnablePlanCache it never discards surviving entries, and once
// a cache is installed it is safe to call concurrently with serving (the
// resize happens under the cache's own lock). When no cache exists yet it
// installs an empty one — do that before serving starts, same as
// EnablePlanCache. capacity <= 0 keeps the cache installed but empty (every
// fill is immediately evicted), which is how a zero-grant tenant remains
// governable without the nil-cache special case.
func (p *Predictor) SetPlanCacheCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	if p.cache == nil {
		p.cache = newPlanCache(capacity, &p.tel)
		return
	}
	p.cache.setCapacity(capacity)
}

// PlanCacheCap reports the cache's current entry budget (0 when disabled).
func (p *Predictor) PlanCacheCap() int {
	if p.cache == nil {
		return 0
	}
	return p.cache.capacity()
}

// FlushPlanCache empties the plan cache, if one is enabled.
func (p *Predictor) FlushPlanCache() {
	if p.cache != nil {
		p.cache.flush()
	}
}

// PlanCacheLen reports the number of cached estimates (0 when disabled).
func (p *Predictor) PlanCacheLen() int {
	if p.cache == nil {
		return 0
	}
	return p.cache.len()
}

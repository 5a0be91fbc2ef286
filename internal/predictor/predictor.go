// Package predictor implements LOAM's adaptive cost predictor (§4, Fig. 3):
// the TCN plan-embedding backbone (PlanEmb), a cost prediction head (CostPred),
// and a domain classifier (DomClf) behind a gradient reversal layer, trained
// jointly with the Eq.-(1) loss so the embedding is both discriminative for
// cost and invariant between historically executed default plans and
// knob-tuned candidate plans — eliminating conventional refinement
// (Challenge C3).
package predictor

import (
	"errors"
	"fmt"
	"math"

	"loam/internal/encoding"
	"loam/internal/floatsafe"
	"loam/internal/plan"
	"loam/internal/simrand"
	"loam/internal/telemetry"
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
	// Kind names the backbone; only KindTCN (or zero, which means it) builds.
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

// Predictor is a trained adaptive cost predictor: the TCN backbone under a
// Head.
type Predictor struct {
	Head
	enc    *encoding.Encoder
	encCfg encoding.Config
	bb     *tcnBackbone

	// cache, when non-nil, memoizes plans' cost estimates for keyed
	// environment sources (see cache.go). Configured via EnablePlanCache,
	// typically by the deployment layer; nil disables caching entirely.
	cache *planCache
	// memo holds the estimates under what each plan encodes to (memo.go),
	// for every source.
	memo *planMemo

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
// race with in-flight SelectPlanKeyed calls.
func (h *Head) Instrument(reg *telemetry.Registry) {
	h.tel = predictorTelemetry{
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

// ErrNoCandidates is returned by SelectPlanKeyed when the candidate set is empty.
var ErrNoCandidates = errors.New("predictor: no candidate plans")

// ErrNoFiniteEstimate is returned by SelectPlanKeyed when every candidate's cost
// estimate is NaN, so no plan can be preferred over another.
var ErrNoFiniteEstimate = errors.New("predictor: no candidate has a finite cost estimate")

// Train fits the predictor; a Config.Kind other than KindTCN or zero is an
// error. candPlans is a small set of *unexecuted* candidate plans used purely
// for domain alignment — they carry no cost labels (§4, Adaptive Training
// Paradigm). It may be empty when cfg.Adapt is false.
func Train(cfg Config, enc *encoding.Encoder, train []Sample, candPlans []*plan.Plan) (*Predictor, error) {
	return TrainInstrumented(cfg, enc, train, candPlans, nil)
}

// TrainInstrumented is Train reporting into a telemetry registry (see
// TrainHead). A nil registry trains silently.
func TrainInstrumented(cfg Config, enc *encoding.Encoder, train []Sample, candPlans []*plan.Plan, reg *telemetry.Registry) (*Predictor, error) {
	if cfg.Kind != 0 && cfg.Kind != KindTCN {
		return nil, fmt.Errorf("predictor: kind %d: the TCN is the only model", cfg.Kind)
	}
	p := &Predictor{Head: Head{cfg: cfg}, enc: enc, encCfg: enc.Config()}
	p.build(simrand.New(cfg.Seed))
	h, err := TrainHead(cfg, train, candPlans, p.bb.trainer(), reg)
	if err != nil {
		return nil, err
	}
	p.Head = h
	return p, nil
}

// build constructs the TCN p.cfg describes over p.enc, initialized from
// rng, and its plan memo. Train fits it; Load overwrites its weights, after
// checkParams has sized it by arithmetic.
func (p *Predictor) build(rng *simrand.RNG) {
	cfg := p.cfg
	p.bb = newTCN(rng, p.enc, cfg.Hidden, cfg.Layers, cfg.EmbDim)
	p.memo = newPlanMemo()
}

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

// envFor resolves a strategy to the one environment vector it predicts
// under: clusterExpected and clusterCurrent carry the cluster-side
// observations the CE/CB variants rely on, the default is the training mean,
// and StrategyNoEnv has none (ok false). EnvSourceFor and EnvKeyFor are its
// two projections, so a key always names its source.
func (h *Head) envFor(s Strategy, clusterExpected, clusterCurrent [4]float64) (env [4]float64, ok bool) {
	switch s {
	case StrategyClusterExpected:
		return clusterExpected, true
	case StrategyClusterCurrent:
		return clusterCurrent, true
	case StrategyNoEnv:
		return env, false
	default:
		return h.trainMeanEnv, true
	}
}

// EnvFor materializes a strategy (see envFor) into the EnvSource inference
// reads and the plan-cache key identifying it, resolving the vector once.
func (h *Head) EnvFor(s Strategy, clusterExpected, clusterCurrent [4]float64) (encoding.EnvSource, encoding.EnvKey) {
	env, ok := h.envFor(s, clusterExpected, clusterCurrent)
	if !ok {
		return encoding.NoEnv(), encoding.NoEnvKey()
	}
	return encoding.FixedEnv(env), encoding.FixedEnvKey(env)
}

// EnvSourceFor is EnvFor's source alone.
func (h *Head) EnvSourceFor(s Strategy, clusterExpected, clusterCurrent [4]float64) encoding.EnvSource {
	if env, ok := h.envFor(s, clusterExpected, clusterCurrent); ok {
		return encoding.FixedEnv(env)
	}
	return encoding.NoEnv()
}

// SelectPlanKeyed returns the candidate with the lowest estimated cost,
// along with all estimates; it is the predictor's one selection method. The
// candidates are embedded together — by the TCN as one forest, one row per
// layer class convolved — then scored in a single batched pass through the
// cost head (score). Costs are bit-identical to PredictCost on each
// candidate, and ties and NaN handling follow floatsafe.ArgMin, so the chosen
// plan never depends on batching.
//
// key must identify envs (see EnvFor), which makes the candidates'
// estimates eligible for the plan cache; the zero (unkeyed) key scores
// uncached, to the same bits.
//
// An empty candidate set returns ErrNoCandidates; candidates whose estimate
// is NaN are skipped when choosing, and if every estimate is NaN the error is
// ErrNoFiniteEstimate. The costs slice is returned even on
// ErrNoFiniteEstimate so callers can log the estimates.
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
	s := getScratch()
	defer putScratch(s)
	p.score(s, costs, cands, envs, key)
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

// EnvKeyFor is EnvFor's key alone.
func (h *Head) EnvKeyFor(s Strategy, clusterExpected, clusterCurrent [4]float64) encoding.EnvKey {
	if env, ok := h.envFor(s, clusterExpected, clusterCurrent); ok {
		return encoding.FixedEnvKey(env)
	}
	return encoding.NoEnvKey()
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

// ResetPlanMemo empties the plan memo (memo.go): the hook a benchmark times
// a first sight with, never needed in serving.
func (p *Predictor) ResetPlanMemo() {
	p.memo.mu.Lock()
	p.memo.reset()
	p.memo.mu.Unlock()
}

// PlanMemoStats reports how many plans scoring passes looked up in the plan
// memo and how many of them it answered. They depend on how concurrent
// passes interleave, so they are for benchmarks, not telemetry.
func (p *Predictor) PlanMemoStats() (scored, answered int64) {
	return p.memo.scored.Load(), p.memo.answered.Load()
}

// PlanCacheLen reports the number of cached estimates (0 when disabled).
func (p *Predictor) PlanCacheLen() int {
	if p.cache == nil {
		return 0
	}
	return p.cache.len()
}

package loam

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"loam/internal/durable"
	"loam/internal/encoding"
	"loam/internal/exec"
	"loam/internal/feedback"
	"loam/internal/floatsafe"
	"loam/internal/history"
	"loam/internal/predictor"
)

// This file is the model lifecycle seam: the one place a deployment's
// serving predictor is ever replaced. The paper's deployment story (§6–§7)
// retrains LOAM continually from executed-query feedback; the lifecycle
// manager closes that loop — harvest feedback from every ExecuteChoice,
// detect drift (prediction-vs-actual divergence, or the serving guard's
// regression-sentinel quarantine), retrain deterministically, shadow-score
// the retrained model against the incumbent on the recent feedback window,
// hot-swap an accepted model in atomically, and roll back automatically if
// the sentinel trips on the promoted model during probation. See DESIGN.md
// "Model lifecycle contract".

// DriftConfig tunes the lifecycle's prediction-vs-actual drift detector; see
// the field docs in internal/feedback.
type DriftConfig = feedback.DriftConfig

// DefaultDriftConfig returns the drift-detector settings lifecycles use when
// LifecycleConfig.Drift is left zero.
func DefaultDriftConfig() DriftConfig { return feedback.DefaultDriftConfig() }

// LifecycleConfig tunes the model lifecycle loop; attach one with
// WithLifecycle. Zero fields take the DefaultLifecycleConfig values.
type LifecycleConfig struct {
	// FeedbackCapacity bounds the feedback store (entries retained, newest
	// win). The retained window is a pure function of the append sequence,
	// so same-seed runs retrain from identical sets.
	FeedbackCapacity int
	// Drift configures the prediction-vs-actual drift detector. The guard's
	// regression sentinel is the second, independent drift trigger; both
	// signals feed the same retrain path.
	Drift DriftConfig
	// RetrainWindow is how many of the newest feedback entries form the
	// retrain set.
	RetrainWindow int
	// ShadowWindow is how many of the newest feedback entries the shadow
	// scorer replays through both models when deciding a promotion.
	ShadowWindow int
	// MinFeedback is how many retained entries a retrain attempt requires; a
	// drift signal arriving earlier stays pending until the store fills.
	MinFeedback int
	// AcceptTolerance is the shadow-score slack: a candidate is promoted iff
	// its mean log-error beats incumbentErr × (1 + AcceptTolerance). The
	// comparison is NaN-closed (floatsafe.Less): a candidate that cannot be
	// scored is never promoted; an incumbent that cannot be scored always
	// loses to a scorable candidate.
	AcceptTolerance float64
	// Probation is how many post-promote observations the predecessor model
	// is kept on file: a drift signal inside the window rolls the promotion
	// back; surviving it discards the predecessor.
	Probation int
	// DomainPlans caps the unexecuted candidate plans generated for domain
	// alignment during retrain (§4); <= 0 keeps the default. Retrains skip
	// domain alignment entirely when the base predictor config has Adapt
	// off.
	DomainPlans int
}

// DefaultLifecycleConfig returns the serving-scale lifecycle loop: a 1024-
// entry feedback ring, the default drift detector, retrains over the newest
// 256 entries shadow-scored on the newest 64, and a 32-observation
// probation.
func DefaultLifecycleConfig() LifecycleConfig {
	return LifecycleConfig{
		FeedbackCapacity: feedback.DefaultCapacity,
		Drift:            DefaultDriftConfig(),
		RetrainWindow:    256,
		ShadowWindow:     64,
		MinFeedback:      48,
		AcceptTolerance:  0.1,
		Probation:        32,
		DomainPlans:      32,
	}
}

// normalize fills zero fields from the defaults.
func (c LifecycleConfig) normalize() LifecycleConfig {
	d := DefaultLifecycleConfig()
	if c.FeedbackCapacity <= 0 {
		c.FeedbackCapacity = d.FeedbackCapacity
	}
	if c.RetrainWindow <= 0 {
		c.RetrainWindow = d.RetrainWindow
	}
	if c.ShadowWindow <= 0 {
		c.ShadowWindow = d.ShadowWindow
	}
	if c.MinFeedback <= 0 {
		c.MinFeedback = d.MinFeedback
	}
	if c.AcceptTolerance <= 0 {
		c.AcceptTolerance = d.AcceptTolerance
	}
	if c.Probation <= 0 {
		c.Probation = d.Probation
	}
	if c.DomainPlans <= 0 {
		c.DomainPlans = d.DomainPlans
	}
	return c
}

// Lifecycle manages a deployment's model across its serving life. It owns
// the only two writes to the deployment's predictor pointer — promote and
// rollback — and pairs each with a guard scorer swap, so the serving ladder
// and the environment source always describe the same model family. All
// reactions run synchronously on the goroutine that executed the triggering
// query; a mutex serializes them, so concurrent executors never interleave
// retrains.
type Lifecycle struct {
	d   *Deployment
	cfg LifecycleConfig
	tel lifecycleTelemetry

	// sentinel is set by the guard's drift hook (outside the guard lock)
	// when the regression sentinel quarantines the model, and consumed at
	// the next observation or Tick.
	sentinel atomic.Bool

	mu    sync.Mutex
	store *feedback.Store
	det   *feedback.Detector
	// baseCfg is the config the deployment's original model was trained
	// with; retrain attempt n uses baseCfg with Seed+n, so every candidate
	// model is a deterministic descendant of the incumbent lineage.
	baseCfg predictor.Config
	// version is the serving model's lineage number (the first deploy is 1);
	// next is the number the next trained candidate takes. Failed or
	// rejected attempts still consume a number, so no two trained models
	// ever share a seed.
	version, next int
	// prev holds the pre-promote incumbent during probation; prevVer its
	// version. nil outside probation.
	prev           *predictor.Predictor
	prevVer        int
	probationLeft  int
	pendingRetrain bool
}

// newLifecycle wires a lifecycle manager to a freshly built deployment.
func newLifecycle(d *Deployment, cfg LifecycleConfig) *Lifecycle {
	cfg = cfg.normalize()
	lc := &Lifecycle{
		d:       d,
		cfg:     cfg,
		tel:     newLifecycleTelemetry(d.tel),
		store:   feedback.NewStore(cfg.FeedbackCapacity),
		det:     feedback.NewDetector(cfg.Drift),
		baseCfg: d.pred.Load().Config(),
		version: 1,
		next:    2,
	}
	lc.tel.modelVersion.Set(1)
	return lc
}

// Config returns the lifecycle's normalized configuration.
func (lc *Lifecycle) Config() LifecycleConfig { return lc.cfg }

// Version returns the serving model's lineage version: 1 for the model
// Deploy trained, incremented by every promotion, restored by a rollback.
func (lc *Lifecycle) Version() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.version
}

// InProbation reports whether a freshly promoted model is still serving
// under probation (its predecessor retained for rollback).
func (lc *Lifecycle) InProbation() bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.prev != nil
}

// FeedbackLen returns the number of retained feedback entries.
func (lc *Lifecycle) FeedbackLen() int { return lc.store.Len() }

// FeedbackTotal returns the number of feedback entries ever harvested.
func (lc *Lifecycle) FeedbackTotal() int64 { return lc.store.Total() }

// noteSentinelTrip is the guard's drift hook: called on the serving
// goroutine, after the guard lock is released, when the regression sentinel
// quarantines the model. The lifecycle reacts at the next observation (or
// Tick) rather than inline, keeping the serve call's latency clean.
func (lc *Lifecycle) noteSentinelTrip() { lc.sentinel.Store(true) }

// Tick gives the lifecycle a reaction point without a new observation —
// for serving-only workloads that never call ExecuteChoice but still want a
// sentinel quarantine to trigger rollback or retrain.
func (lc *Lifecycle) Tick() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.reactLocked(false)
}

// observe harvests one executed choice into the feedback store and runs the
// lifecycle reaction: drift detection on learned-origin entries, then —
// when a drift or sentinel signal is live — rollback (under probation) or
// retrain → shadow-score → promote.
func (lc *Lifecycle) observe(c *Choice, rec *exec.Record) {
	predicted := math.NaN()
	if c.Origin == OriginLearned && c.ChosenIdx >= 0 && c.ChosenIdx < len(c.Estimates) {
		predicted = c.Estimates[c.ChosenIdx]
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.store.Add(feedback.Entry{Query: c.Query, Record: rec, Predicted: predicted})
	lc.tel.feedbackHarvested.Inc()
	lc.tel.feedbackSize.Set(float64(lc.store.Len()))
	// Journal before the detector reacts: if the reaction checkpoints (and
	// resets the journal), this record was part of the window that reset.
	lc.d.journalObservation(predicted, rec.CPUCost)
	lc.reactLocked(lc.det.Observe(predicted, rec.CPUCost))
}

// reactLocked folds the two drift triggers into one pending-retrain state
// and services it: a signal during probation indicts the promoted model and
// rolls it back; otherwise a retrain attempt runs as soon as enough feedback
// is retained. Callers hold lc.mu.
func (lc *Lifecycle) reactLocked(detectorFired bool) {
	if lc.sentinel.Swap(false) || detectorFired {
		lc.tel.driftSignals.Inc()
		lc.pendingRetrain = true
	}
	if lc.pendingRetrain {
		lc.pendingRetrain = false
		if lc.prev != nil {
			lc.rollbackLocked()
			return
		}
		if lc.store.Len() < lc.cfg.MinFeedback {
			// Not enough feedback to retrain from yet: keep the signal
			// pending and retry as observations accumulate. The incumbent
			// stays quarantined (serving the native fallback) meanwhile.
			lc.pendingRetrain = true
			return
		}
		lc.retrainLocked()
		return
	}
	// Quiet observation: run down the probation clock.
	if lc.prev != nil {
		lc.probationLeft--
		if lc.probationLeft <= 0 {
			lc.prev, lc.prevVer = nil, 0
			lc.persistProbationClear()
		}
	}
}

// retrainLocked trains a candidate model from the recent feedback window,
// shadow-scores it against the incumbent, and promotes it if it wins. A
// failed or rejected attempt changes nothing: the incumbent keeps serving
// (or keeps its quarantine fallback). Callers hold lc.mu.
func (lc *Lifecycle) retrainLocked() {
	candVer := lc.next
	lc.next++
	lc.tel.retrainRuns.Inc()
	if lc.d.inj.RetrainFail(fmt.Sprintf("v%d", candVer)) {
		lc.tel.retrainFailed.Inc()
		return
	}
	window := lc.store.Recent(lc.cfg.RetrainWindow)
	entries := make([]history.Entry, len(window))
	for i, e := range window {
		entries[i] = history.Entry{Query: e.Query, Record: e.Record}
	}
	samples, domain := lc.d.ProjectSim.trainingSet(entries, lc.baseCfg.Adapt, lc.cfg.DomainPlans)
	cfg := lc.baseCfg
	cfg.Seed = lc.baseCfg.Seed + uint64(candVer)
	cand, err := predictor.TrainInstrumented(cfg, lc.d.Encoder, samples, domain, lc.d.tel)
	if err != nil {
		lc.tel.retrainFailed.Inc()
		return
	}
	shadow := lc.store.Recent(lc.cfg.ShadowWindow)
	incErr := shadowError(lc.d.pred.Load(), shadow)
	candErr := shadowError(cand, shadow)
	lc.tel.setShadowErrs(incErr, candErr)
	if !floatsafe.Less(candErr, incErr*(1+lc.cfg.AcceptTolerance)) {
		lc.tel.retrainRejected.Inc()
		return
	}
	lc.promoteLocked(cand, candVer)
}

// promoteLocked hot-swaps the candidate in as the serving model. The swap is
// atomic at both read points: the predictor pointer (environment source,
// SaveModel) and the guard scorer flip to the candidate in one step each,
// and each serve call reads each exactly once. The candidate gets a fresh
// plan cache, so no estimate from the incumbent's weights survives the
// swap; the guard's breaker and sentinel restart clean (releasing any
// quarantine), and the drift detector starts a fresh history. Callers hold
// lc.mu. The fresh cache takes the incumbent cache's current capacity — the
// WithPlanCache value until a fleet registry resizes it, the live grant
// afterwards — so a promote never resets a tenant's capacity back to its
// deploy-time setting; if a Rebalance lands between the read and the swap,
// the next Rebalance re-applies its grant and the fleet re-converges.
func (lc *Lifecycle) promoteLocked(cand *predictor.Predictor, ver int) {
	lc.prev, lc.prevVer = lc.d.pred.Load(), lc.version
	cand.EnablePlanCache(lc.prev.PlanCacheCap())
	lc.probationLeft = lc.cfg.Probation
	lc.version = ver
	lc.d.pred.Store(cand)
	lc.d.grd.SwapScorer(cand)
	lc.det.Reset()
	lc.tel.promotes.Inc()
	lc.tel.modelVersion.Set(float64(ver))
	// Fail-open durable checkpoint: a write error leaves serving untouched
	// (durable.errors counts it); injected crashes panic through.
	_ = lc.d.persistCheckpoint(checkpointState{
		event:        durable.EventPromote,
		version:      ver,
		parent:       lc.prevVer,
		next:         lc.next,
		cur:          cand,
		probation:    lc.probationLeft,
		prev:         lc.prev,
		prevVer:      lc.prevVer,
		resetJournal: true,
	})
}

// rollbackLocked restores the pre-promote incumbent: the promoted model
// drew a drift signal inside its probation window. The restored model keeps
// its own plan cache (its weights never changed), and the guard restarts
// clean around it. Callers hold lc.mu.
func (lc *Lifecycle) rollbackLocked() {
	indicted := lc.version
	lc.version = lc.prevVer
	lc.d.pred.Store(lc.prev)
	lc.d.grd.SwapScorer(lc.prev)
	lc.prev, lc.prevVer = nil, 0
	lc.probationLeft = 0
	lc.det.Reset()
	lc.tel.rollbacks.Inc()
	lc.tel.modelVersion.Set(float64(lc.version))
	// Fail-open durable checkpoint, as in promoteLocked.
	_ = lc.d.persistCheckpoint(checkpointState{
		event:        durable.EventRollback,
		version:      lc.version,
		parent:       indicted,
		next:         lc.next,
		cur:          lc.d.pred.Load(),
		resetJournal: true,
	})
}

// shadowError replays a feedback window through a model and returns the mean
// |ln(predicted/actual)| over the scorable entries — the same ln-space
// measure the drift detector thresholds. NaN when nothing in the window is
// scorable, which the acceptance gate fails closed on.
func shadowError(p *predictor.Predictor, window []feedback.Entry) float64 {
	n, sum := 0, 0.0
	for _, e := range window {
		actual := e.Record.CPUCost
		if math.IsNaN(actual) || math.IsInf(actual, 0) || actual <= 0 {
			continue
		}
		pred := p.PredictCost(e.Record.Plan, encoding.RecordEnv(e.Record.NodeEnv))
		if math.IsNaN(pred) || math.IsInf(pred, 0) || pred <= 0 {
			continue
		}
		sum += math.Abs(math.Log(pred) - math.Log(actual))
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

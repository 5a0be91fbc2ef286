package loam

import (
	"math"

	"loam/internal/telemetry"
)

// servingTelemetry holds the deployment's resolved serving-path instruments.
// Every field is a nil-safe no-op when no registry is wired, and every value
// that reaches a snapshot is an order-independent aggregate, so concurrent
// OptimizeCtx callers snapshot identically to a sequential run (the
// telemetry contract, DESIGN.md).
type servingTelemetry struct {
	optimizeTotal   *telemetry.Counter
	optimizeErrors  *telemetry.Counter
	optimizeCancels *telemetry.Counter
	optimizeLatency *telemetry.Timer
	candidates      *telemetry.Histogram
	estimateSpread  *telemetry.Histogram
	nanEstimates    *telemetry.Counter
}

// newServingTelemetry resolves the serving instruments from a registry.
func newServingTelemetry(reg *telemetry.Registry) servingTelemetry {
	return servingTelemetry{
		optimizeTotal:   reg.Counter("serve.optimize.total"),
		optimizeErrors:  reg.Counter("serve.optimize.errors"),
		optimizeCancels: reg.Counter("serve.optimize.canceled"),
		optimizeLatency: reg.Timer("serve.optimize.latency"),
		candidates:      reg.Histogram("serve.candidates", telemetry.LinearBuckets(1, 1, 8)),
		estimateSpread:  reg.Histogram("serve.estimate.rel_spread", []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 5}),
		nanEstimates:    reg.Counter("serve.estimates.nan"),
	}
}

// lifecycleTelemetry holds the model-lifecycle instruments (lifecycle.* and
// model.version). They are registered only when WithLifecycle attaches a
// manager, so lifecycle-free deployments snapshot exactly as before. Every
// value is either a monotonic count or a gauge written under the lifecycle
// mutex, so same-seed single-driver runs snapshot byte-identically.
type lifecycleTelemetry struct {
	modelVersion      *telemetry.Gauge
	feedbackHarvested *telemetry.Counter
	feedbackSize      *telemetry.Gauge
	driftSignals      *telemetry.Counter
	retrainRuns       *telemetry.Counter
	retrainFailed     *telemetry.Counter
	retrainRejected   *telemetry.Counter
	promotes          *telemetry.Counter
	rollbacks         *telemetry.Counter
	shadowIncumbent   *telemetry.Gauge
	shadowCandidate   *telemetry.Gauge
}

// newLifecycleTelemetry resolves the lifecycle instruments from a registry.
func newLifecycleTelemetry(reg *telemetry.Registry) lifecycleTelemetry {
	return lifecycleTelemetry{
		modelVersion:      reg.Gauge("model.version"),
		feedbackHarvested: reg.Counter("lifecycle.feedback.harvested"),
		feedbackSize:      reg.Gauge("lifecycle.feedback.size"),
		driftSignals:      reg.Counter("lifecycle.drift.signals"),
		retrainRuns:       reg.Counter("lifecycle.retrain.runs"),
		retrainFailed:     reg.Counter("lifecycle.retrain.failed"),
		retrainRejected:   reg.Counter("lifecycle.retrain.rejected"),
		promotes:          reg.Counter("lifecycle.promote"),
		rollbacks:         reg.Counter("lifecycle.rollback"),
		shadowIncumbent:   reg.Gauge("lifecycle.shadow.incumbent_logerr"),
		shadowCandidate:   reg.Gauge("lifecycle.shadow.candidate_logerr"),
	}
}

// setShadowErrs records the latest shadow-scoring comparison; NaN scores
// (nothing scorable in the window) leave the gauges untouched rather than
// poisoning the snapshot.
func (t lifecycleTelemetry) setShadowErrs(incumbent, candidate float64) {
	if !math.IsNaN(incumbent) {
		t.shadowIncumbent.Set(incumbent)
	}
	if !math.IsNaN(candidate) {
		t.shadowCandidate.Set(candidate)
	}
}

// observeEstimates records estimate-quality signals for one choice: how many
// candidate estimates were NaN, and the relative spread (max−min)/min of the
// finite ones — a wide spread means steering had real headroom to exploit,
// a zero spread means the candidates were indistinguishable to the model.
func (t servingTelemetry) observeEstimates(estimates []float64) {
	lo, hi := math.NaN(), math.NaN()
	nans := int64(0)
	for _, v := range estimates {
		if math.IsNaN(v) {
			nans++
			continue
		}
		if math.IsNaN(lo) || v < lo {
			lo = v
		}
		if math.IsNaN(hi) || v > hi {
			hi = v
		}
	}
	t.nanEstimates.Add(nans)
	if !math.IsNaN(lo) && lo > 0 {
		t.estimateSpread.Observe((hi - lo) / lo)
	}
}

package guard

import (
	"errors"

	"loam/internal/predictor"
	"loam/internal/telemetry"
)

// guardTelemetry holds the guard.* instruments. Every field is a nil-safe
// no-op without a registry, and every recorded value is an order-independent
// count, so parallel serving snapshots byte-identically to sequential
// serving whenever the set of per-query outcomes is the same (always true at
// injection rates 0 and 1, the rates the determinism tests pin).
type guardTelemetry struct {
	serveTotal   *telemetry.Counter
	serveLearned *telemetry.Counter
	serveShed    *telemetry.Counter
	exhausted    *telemetry.Counter

	fallbackNative  *telemetry.Counter
	fallbackDefault *telemetry.Counter

	reasonBreaker    *telemetry.Counter
	reasonShed       *telemetry.Counter
	reasonDeadline   *telemetry.Counter
	reasonNoCands    *telemetry.Counter
	reasonNoFinite   *telemetry.Counter
	reasonPredictor  *telemetry.Counter
	reasonQuarantine *telemetry.Counter

	breakerOpened     *telemetry.Counter
	breakerHalfOpened *telemetry.Counter
	breakerClosed     *telemetry.Counter
	breakerState      *telemetry.Gauge

	deadlineHits       *telemetry.Counter
	scorerPanics       *telemetry.Counter
	quarantineTrips    *telemetry.Counter
	quarantineReleased *telemetry.Counter
	quarantineActive   *telemetry.Gauge
	sentinelSamples    *telemetry.Counter
	sentinelAdverse    *telemetry.Counter

	injPredictor *telemetry.Counter
	injNaN       *telemetry.Counter
	injDelay     *telemetry.Counter
	injNative    *telemetry.Counter
	injSpike     *telemetry.Counter
}

// newGuardTelemetry resolves the guard instruments from a registry.
func newGuardTelemetry(reg *telemetry.Registry) guardTelemetry {
	return guardTelemetry{
		serveTotal:   reg.Counter("guard.serve.total"),
		serveLearned: reg.Counter("guard.serve.learned"),
		serveShed:    reg.Counter("guard.serve.shed"),
		exhausted:    reg.Counter("guard.serve.exhausted"),

		fallbackNative:  reg.Counter("guard.fallback.native"),
		fallbackDefault: reg.Counter("guard.fallback.default"),

		reasonBreaker:    reg.Counter("guard.fallback.reason.breaker_open"),
		reasonShed:       reg.Counter("guard.fallback.reason.load_shed"),
		reasonDeadline:   reg.Counter("guard.fallback.reason.deadline"),
		reasonNoCands:    reg.Counter("guard.fallback.reason.no_candidates"),
		reasonNoFinite:   reg.Counter("guard.fallback.reason.no_finite_estimate"),
		reasonPredictor:  reg.Counter("guard.fallback.reason.predictor_error"),
		reasonQuarantine: reg.Counter("guard.fallback.reason.quarantined"),

		breakerOpened:     reg.Counter("guard.breaker.opened"),
		breakerHalfOpened: reg.Counter("guard.breaker.half_opened"),
		breakerClosed:     reg.Counter("guard.breaker.closed"),
		breakerState:      reg.Gauge("guard.breaker.state"),

		deadlineHits:       reg.Counter("guard.deadline.hits"),
		scorerPanics:       reg.Counter("guard.scorer.panics"),
		quarantineTrips:    reg.Counter("guard.quarantine.trips"),
		quarantineReleased: reg.Counter("guard.quarantine.released"),
		quarantineActive:   reg.Gauge("guard.quarantine.active"),
		sentinelSamples:    reg.Counter("guard.sentinel.samples"),
		sentinelAdverse:    reg.Counter("guard.sentinel.adverse_samples"),

		injPredictor: reg.Counter("guard.inject.predictor_errors"),
		injNaN:       reg.Counter("guard.inject.nan_estimates"),
		injDelay:     reg.Counter("guard.inject.delays"),
		injNative:    reg.Counter("guard.inject.native_failures"),
		injSpike:     reg.Counter("guard.inject.load_spikes"),
	}
}

// reason maps a fallback cause to its guard.fallback.reason.* counter.
func (t *guardTelemetry) reason(cause error) *telemetry.Counter {
	switch {
	case errors.Is(cause, ErrLoadShed):
		return t.reasonShed
	case errors.Is(cause, ErrBreakerOpen):
		return t.reasonBreaker
	case errors.Is(cause, ErrQuarantined):
		return t.reasonQuarantine
	case errors.Is(cause, ErrDeadline):
		return t.reasonDeadline
	case errors.Is(cause, predictor.ErrNoCandidates):
		return t.reasonNoCands
	case errors.Is(cause, predictor.ErrNoFiniteEstimate):
		return t.reasonNoFinite
	default:
		return t.reasonPredictor
	}
}

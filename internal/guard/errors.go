package guard

import (
	"errors"

	"loam/internal/predictor"
)

// The failure taxonomy. Every learned-path failure the guard observes is
// classified into exactly one of two classes, both re-exported as sentinels
// from the root loam package so callers can errors.Is against them:
//
//   - ErrTransient: the failure is expected to clear without intervention —
//     a deadline hit, an injected fault, a breaker rejection during an
//     outage. Transient failures feed the circuit breaker's sliding window.
//   - ErrPermanent: the failure is deterministic for this query or model —
//     the explorer produced no candidates, no candidate had a finite
//     estimate, or the scorer panicked. Retrying the same query against the
//     same model cannot help.
//
// Specific causes (deadline, breaker-open, quarantine) are separate
// sentinels wrapped alongside the class, so both
// errors.Is(err, ErrTransient) and errors.Is(err, ErrDeadline) hold for a
// classified deadline failure.
var (
	// ErrTransient classifies failures likely to clear on their own.
	ErrTransient = errors.New("guard: transient learned-path failure")
	// ErrPermanent classifies failures deterministic for the query or model.
	ErrPermanent = errors.New("guard: permanent learned-path failure")
	// ErrDeadline reports the learned path exceeding its per-query deadline.
	ErrDeadline = errors.New("guard: learned-path deadline exceeded")
	// ErrScorerPanic reports a recovered scorer panic; the message has its value.
	ErrScorerPanic = errors.New("guard: scorer panicked")
	// ErrBreakerOpen reports the learned path being skipped because the
	// circuit breaker is open (cooling down after repeated failures).
	ErrBreakerOpen = errors.New("guard: circuit breaker open")
	// ErrQuarantined reports the model being quarantined by the regression
	// sentinel (learned estimates diverged adversely from native ones).
	ErrQuarantined = errors.New("guard: model quarantined by regression sentinel")
	// ErrNoServablePlan is returned only when every rung of the fallback
	// ladder — learned, native re-plan, default candidate — failed.
	ErrNoServablePlan = errors.New("guard: no servable plan")
	// ErrLoadShed reports a query degraded to the fallback ladder by an
	// admission gate (the fleet registry's token buckets) before the learned
	// path ran. Shedding is a resource decision, not a model failure: it
	// never charges the breaker and takes no sentinel sample.
	ErrLoadShed = errors.New("guard: load shed by admission control")
)

// failure is a classified learned-path error: the class sentinel
// (ErrTransient/ErrPermanent) plus the concrete cause, both reachable
// through errors.Is via multi-error Unwrap.
type failure struct {
	class error
	cause error
}

func (f *failure) Error() string { return f.class.Error() + ": " + f.cause.Error() }

func (f *failure) Unwrap() []error { return []error{f.class, f.cause} }

// classify wraps a raw learned-path error with its taxonomy class.
func classify(err error) *failure {
	if errors.Is(err, predictor.ErrNoCandidates) || errors.Is(err, predictor.ErrNoFiniteEstimate) || errors.Is(err, ErrScorerPanic) {
		return &failure{class: ErrPermanent, cause: err}
	}
	return &failure{class: ErrTransient, cause: err}
}

// countsTowardBreaker reports whether a failure is evidence of model
// ill-health. An empty candidate set indicts the explorer (or the query),
// not the learned scorer, so it falls back without charging the breaker;
// everything else — errors, deadline hits, NaN estimates — does.
func countsTowardBreaker(cause error) bool {
	return !errors.Is(cause, predictor.ErrNoCandidates)
}

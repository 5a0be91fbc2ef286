package loam

import (
	"loam/internal/faultinject"
	"loam/internal/guard"
	"loam/internal/predictor"
	"loam/internal/query"
)

// This file is the root package's resilience surface: the failure sentinels
// callers can errors.Is against, the guarded-serving types (origin, breaker
// state, guard configuration) and the deterministic fault injector. The
// mechanics live in internal/guard and internal/faultinject; everything a
// caller needs is re-exported here so application code never imports
// internal packages.

// ErrInvalidQuery reports a request that cannot be planned — a nil query, or
// one naming no table. OptimizeCtx and a deployment's shed path return it
// (wrapped) before exploring or scoring anything, counted as an optimize
// error; FleetRegistry.Route passes it on, and refuses a nil query itself,
// before the admission gate charges for it.
var ErrInvalidQuery = query.ErrInvalid

// Predictor sentinels. These are the permanent, per-query/per-model failure
// modes of the learned path, re-exported so callers don't need to know which
// internal package produced them.
var (
	// ErrNoTrainingData reports a Deploy with an empty training split.
	ErrNoTrainingData = predictor.ErrNoTrainingData
	// ErrNoCandidates reports an optimize call where the plan explorer
	// produced no candidate plans.
	ErrNoCandidates = predictor.ErrNoCandidates
	// ErrNoFiniteEstimate reports an optimize call where no candidate plan
	// received a finite cost estimate.
	ErrNoFiniteEstimate = predictor.ErrNoFiniteEstimate
	// ErrCorruptSnapshot reports a DeployFromModel whose snapshot payload
	// disagrees with the architecture its own config describes (truncated
	// or reshaped tensors, kind mismatch, bad dimensions). Distinguishable
	// from I/O failures with errors.Is; a load that returns it has mutated
	// nothing.
	ErrCorruptSnapshot = predictor.ErrCorruptSnapshot
)

// Guard sentinels: the failure taxonomy (transient vs permanent) plus the
// specific degraded-mode causes. A Choice served from a fallback rung
// carries one of these in FallbackCause; errors.Is matches both the class
// and the cause (see internal/guard).
var (
	// ErrTransientFailure classifies learned-path failures likely to clear
	// on their own (deadline hits, injected faults, breaker rejections).
	ErrTransientFailure = guard.ErrTransient
	// ErrPermanentFailure classifies failures deterministic for the query
	// or model (no candidates, no finite estimate, scorer panic, quarantine).
	ErrPermanentFailure = guard.ErrPermanent
	// ErrLearnedDeadline reports the learned path exceeding its per-query
	// deadline (GuardConfig.Deadline).
	ErrLearnedDeadline = guard.ErrDeadline
	// ErrScorerPanic reports a panic inside the model's scoring call: the
	// query is served from a fallback rung, the cause carries the panic value.
	ErrScorerPanic = guard.ErrScorerPanic
	// ErrBreakerOpen reports the learned path skipped while the circuit
	// breaker cools down.
	ErrBreakerOpen = guard.ErrBreakerOpen
	// ErrModelQuarantined reports the model sidelined by the regression
	// sentinel. Quarantine lifts when an operator calls
	// Deployment.Guard().Reset(), or when the lifecycle (WithLifecycle)
	// promotes a retrained model or rolls back during probation — the swap
	// retires the indicted scorer, so the sentinel starts fresh.
	ErrModelQuarantined = guard.ErrQuarantined
	// ErrNoServablePlan reports total exhaustion of the fallback ladder —
	// learned, native re-plan and default candidate all unavailable. It is
	// the only guard condition surfaced as an OptimizeCtx error rather than a
	// degraded Choice.
	ErrNoServablePlan = guard.ErrNoServablePlan
	// ErrInjectedFault marks failures forced by a fault injector; it wraps
	// the concrete fault so tests can tell injected outages from organic
	// ones.
	ErrInjectedFault = faultinject.ErrInjected
)

// Origin reports which rung of the serving ladder produced a Choice.
type Origin = guard.Origin

const (
	// OriginLearned: the learned predictor scored and chose the plan.
	OriginLearned = guard.OriginLearned
	// OriginNativeFallback: the learned path failed; the native optimizer
	// re-planned the query with default flags.
	OriginNativeFallback = guard.OriginNativeFallback
	// OriginDefaultFallback: the pre-generated default candidate was served
	// (native re-plan unavailable or also failing).
	OriginDefaultFallback = guard.OriginDefaultFallback
)

// BreakerState is the serving guard's circuit-breaker position.
type BreakerState = guard.BreakerState

const (
	// BreakerClosed: healthy, the learned path serves.
	BreakerClosed = guard.BreakerClosed
	// BreakerOpen: the learned path is rejected while the cooldown runs.
	BreakerOpen = guard.BreakerOpen
	// BreakerHalfOpen: probe calls test whether the learned path recovered.
	BreakerHalfOpen = guard.BreakerHalfOpen
)

// GuardConfig tunes the serving guard; see WithGuardConfig and the field
// docs in internal/guard.
type GuardConfig = guard.Config

// DefaultGuardConfig returns the guard configuration deployments use when
// WithGuardConfig is not given.
func DefaultGuardConfig() GuardConfig { return guard.DefaultConfig() }

// Guard is a deployment's serving guard — exposed for breaker-state
// inspection (State, Quarantined) and operator intervention (Reset).
type Guard = guard.Guard

// FaultInjector deterministically forces serving-path faults; arm one with
// WithFaultInjector. Decisions are pure functions of (seed, fault kind,
// query ID): order- and parallelism-independent, byte-identical across
// same-seed runs.
type FaultInjector = faultinject.Injector

// FaultInjectorConfig sets per-fault-kind injection rates in [0, 1].
type FaultInjectorConfig = faultinject.Config

// NewFaultInjector builds a deterministic fault injector. The injector
// starts enabled; SetEnabled(false) pauses injection (e.g. to model an
// outage window that starts mid-run) without disturbing its decisions for
// other queries.
func NewFaultInjector(seed uint64, cfg FaultInjectorConfig) *FaultInjector {
	return faultinject.New(seed, cfg)
}

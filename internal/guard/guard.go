// Package guard is the degraded-mode serving layer between the deployment
// API and the learned predictor: the reason a mis-trained or unhealthy model
// can never take serving availability down with it.
//
// Every OptimizeCtx call routes through Guard.Serve, which
//
//  1. enforces a per-query deadline on the learned path (one stopwatch
//     read when the scorer returns, on the caller's goroutine; deterministic
//     deadline testing goes through internal/faultinject's simulated delays),
//  2. classifies failures into the transient/permanent taxonomy
//     (errors.go), re-exported as root-package sentinels,
//  3. falls back on any learned-path failure: first a fresh native-optimizer
//     plan, then the explorer's default candidate — so a valid plan is
//     served unless every rung fails,
//  4. wraps the learned path in a circuit breaker (closed → open →
//     half-open) over a sliding failure window, cooled down in logical
//     serve steps rather than wall time, and
//  5. runs a regression sentinel that quarantines the model when learned
//     choices diverge adversely from the native optimizer's judgment for
//     K consecutive windows (the Bao/QO-advisor guardrail pattern).
//
// Every decision is counted through guard.* telemetry; all counts are
// order-independent, so same-seed runs snapshot byte-identically whenever
// the per-query outcome set is deterministic (injection rates 0 or 1, or
// sequential serving).
package guard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"loam/internal/encoding"
	"loam/internal/faultinject"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/query"
	"loam/internal/telemetry"
	"loam/internal/walltime"
)

// Origin labels which rung of the serving ladder produced a plan.
type Origin int

const (
	// OriginLearned: the learned predictor's choice served.
	OriginLearned Origin = iota
	// OriginNativeFallback: the native optimizer re-planned the query after
	// a learned-path failure.
	OriginNativeFallback
	// OriginDefaultFallback: the explorer's default candidate served as the
	// last resort.
	OriginDefaultFallback
)

// String renders the origin as its stable label.
func (o Origin) String() string {
	switch o {
	case OriginNativeFallback:
		return "native-fallback"
	case OriginDefaultFallback:
		return "default-fallback"
	default:
		return "learned"
	}
}

// Config tunes the guard. The zero value is normalized by New to
// DefaultConfig's settings field-by-field.
type Config struct {
	// Deadline bounds real scoring time per query (<= 0: no bound). It is
	// the one wall-clock input: on a healthy run scoring finishes orders of
	// magnitude sooner, so expiry only changes behavior on runs that were
	// already overloaded.
	Deadline time.Duration
	// WindowSize is the sliding failure window over recent learned calls.
	WindowSize int
	// TripThreshold opens the breaker when this many failures sit in the
	// window.
	TripThreshold int
	// CooldownSteps is how many serve calls an open breaker rejects before
	// probing (logical steps, not wall time — see breaker.go).
	CooldownSteps int
	// HalfOpenProbes is how many consecutive successful probes close a
	// half-open breaker.
	HalfOpenProbes int
	// DivergenceBand is the regression sentinel's tolerance: a learned
	// choice is adverse when its native rough cost exceeds the default
	// plan's by more than this factor.
	DivergenceBand float64
	// DivergenceWindow is how many learned choices form one sentinel
	// window; a window is adverse when a majority of its samples are.
	DivergenceWindow int
	// QuarantineWindows is how many consecutive adverse windows quarantine
	// the model.
	QuarantineWindows int
}

// DefaultConfig returns serving-scale guard settings.
func DefaultConfig() Config {
	return Config{
		Deadline:          2 * time.Second,
		WindowSize:        16,
		TripThreshold:     8,
		CooldownSteps:     32,
		HalfOpenProbes:    3,
		DivergenceBand:    3,
		DivergenceWindow:  16,
		QuarantineWindows: 3,
	}
}

// normalize fills zero fields from the defaults (Deadline excepted: 0 there
// legitimately means "no deadline").
func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.WindowSize <= 0 {
		c.WindowSize = d.WindowSize
	}
	if c.TripThreshold <= 0 {
		c.TripThreshold = d.TripThreshold
	}
	if c.CooldownSteps <= 0 {
		c.CooldownSteps = d.CooldownSteps
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = d.HalfOpenProbes
	}
	if c.DivergenceBand <= 0 {
		c.DivergenceBand = d.DivergenceBand
	}
	if c.DivergenceWindow <= 0 {
		c.DivergenceWindow = d.DivergenceWindow
	}
	if c.QuarantineWindows <= 0 {
		c.QuarantineWindows = d.QuarantineWindows
	}
	return c
}

// Scorer is the learned path: predictor.Predictor implements it, tests stub
// it. key identifies envs when the request carries one (see Request.EnvKey),
// which lets the predictor reuse cached plan estimates; the zero key scores
// uncached.
type Scorer interface {
	SelectPlanKeyed(cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) (*plan.Plan, []float64, error)
}

// KeyedScorer is another name for Scorer; bench/trace.go names it.
type KeyedScorer = Scorer

// BatchScorer is a bare declaration: nothing implements or calls it in the
// program. bench/trace.go is its only reference, and a later benchmark PR
// drops it.
type BatchScorer interface {
	Scorer
	SelectPlanGroups(groups []predictor.Group)
}

// Request is one query's serving context.
type Request struct {
	// ID is the stable query identifier; it keys fault-injection decisions.
	ID string
	// Day is the simulated day, used for native rough-cost lookups.
	Day int
	// Query is the query itself, re-planned by the native fallback rung.
	Query *query.Query
	// Cands are the explorer's candidates; index 0, when present, is the
	// default plan (the last-resort rung).
	Cands []*plan.Plan
	// Envs is the resolved environment source for learned scoring.
	Envs encoding.EnvSource
	// EnvKey is the hashable identity of Envs, when it has one. A keyed
	// request lets the scorer reuse cached plan estimates; the zero
	// (unkeyed) value always scores uncached. Callers must keep EnvKey in
	// lockstep with Envs — a stale key would pin wrong estimates.
	EnvKey encoding.EnvKey
}

// Result is a guarded serving outcome: a plan, where it came from, and — for
// fallbacks — the classified failure that pushed serving off the learned
// path.
type Result struct {
	Chosen    *plan.Plan
	Estimates []float64
	Origin    Origin
	// FallbackCause is non-nil iff Origin != OriginLearned; it wraps both a
	// taxonomy class (ErrTransient/ErrPermanent) and the concrete cause.
	FallbackCause error
}

// Options wires a Guard.
type Options struct {
	Config Config
	// Scorer is the learned path (required).
	Scorer Scorer
	// Native re-plans a query with the native optimizer, independent of the
	// candidate set; nil disables the first fallback rung.
	Native func(q *query.Query) *plan.Plan
	// Rough returns the native optimizer's rough cost of a plan against a
	// day's statistics; nil disables the regression sentinel. The sentinel
	// calls it twice per learned serve, on candidates the explorer has just
	// costed: nativeopt.RoughCost answers those from the plan's rough seal,
	// so the guard keeps no cost cache of its own.
	Rough func(day int, p *plan.Plan) float64
	// Injector forces faults for tests and chaos experiments; nil is a
	// no-op.
	Injector *faultinject.Injector
	// Metrics receives the guard.* instruments.
	Metrics *telemetry.Registry
}

// Guard is the guarded serving gate. It is safe for concurrent use: the
// scorer, breaker, sentinel and quarantine state live behind one mutex, and
// everything else is read-only after New.
type Guard struct {
	cfg    Config
	native func(q *query.Query) *plan.Plan
	rough  func(day int, p *plan.Plan) float64
	inj    *faultinject.Injector
	tel    guardTelemetry
	// onQuarantine, when set, is invoked (outside the guard's mutex, on the
	// serving goroutine that observed the trip) each time the regression
	// sentinel quarantines the scorer — the model-lifecycle drift signal.
	// Set via SetDriftHook before serving starts.
	onQuarantine func()

	mu sync.Mutex
	// scorer is the live learned path. It is mutable: the model lifecycle
	// hot-swaps it on promote and rollback (SwapScorer); ScoreLearnedKeyed is
	// its one reader.
	scorer      Scorer
	br          breaker
	quarantined bool
	// Sentinel window accumulation: samples and adverse samples in the
	// current window, plus the consecutive-adverse-window run length.
	winN, winAdverse, adverseRun int
}

// New builds a guard from options (Config normalized via DefaultConfig).
func New(o Options) *Guard {
	cfg := o.Config.normalize()
	return &Guard{
		cfg:    cfg,
		scorer: o.Scorer,
		native: o.Native,
		rough:  o.Rough,
		inj:    o.Injector,
		tel:    newGuardTelemetry(o.Metrics),
		br:     newBreaker(cfg),
	}
}

// Config returns the guard's normalized configuration.
func (g *Guard) Config() Config { return g.cfg }

// SetDriftHook registers fn to run whenever the regression sentinel
// quarantines the scorer. The hook runs outside the guard's mutex on the
// serving goroutine that observed the trip, so it may call back into the
// guard (SwapScorer, Quarantined); it must be fast and must not block. Set
// it before serving starts — it is not safe to change concurrently with
// Serve. The model lifecycle uses it to turn "quarantine and stall" into
// "trigger retrain".
func (g *Guard) SetDriftHook(fn func()) { g.onQuarantine = fn }

// SwapScorer atomically replaces the learned path with s — the model
// lifecycle's hot-swap seam (promote and rollback both land here). The new
// scorer starts with a clean health record: the breaker closes, the sentinel
// windows clear, and any quarantine is released (counted in
// guard.quarantine.released) — the old model's divergence history says
// nothing about the new model. A nil s is ignored. Do not call this outside
// the lifecycle seam; loam-vet's guarddiscipline enforces that swaps happen
// only there.
func (g *Guard) SwapScorer(s Scorer) {
	if s == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.scorer = s
	g.resetHealthLocked()
}

// resetHealthLocked gives the learned path a clean health record: breaker
// closed, sentinel windows empty, quarantine lifted and counted. g.mu held.
func (g *Guard) resetHealthLocked() {
	g.br = newBreaker(g.cfg)
	g.winN, g.winAdverse, g.adverseRun = 0, 0, 0
	if g.quarantined {
		g.quarantined = false
		g.tel.quarantineReleased.Inc()
	}
	g.tel.breakerState.Set(float64(BreakerClosed))
	g.tel.quarantineActive.Set(0)
}

// State returns the breaker's current position.
func (g *Guard) State() BreakerState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.br.state
}

// Quarantined reports whether the regression sentinel has quarantined the
// model. Quarantine is sticky: like the production guardrail it models, a
// quarantined model stays fenced until an operator retrains or Resets.
func (g *Guard) Quarantined() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.quarantined
}

// Reset returns the guard to its initial state: breaker closed, windows
// empty, quarantine lifted (counted in guard.quarantine.released, like a
// lifecycle-driven release). The operator-intervention path.
func (g *Guard) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.resetHealthLocked()
}

// Serve runs one query through the guarded ladder. It returns an error only
// for caller cancellation (ctx.Err(), passed through unwrapped so callers
// can compare it directly) or when every rung failed
// (ErrNoServablePlan); every other learned-path failure degrades to a
// fallback Result instead.
func (g *Guard) Serve(ctx context.Context, req Request) (Result, error) {
	g.tel.serveTotal.Inc()
	if g.inj.LoadSpike(req.ID) {
		g.tel.injSpike.Inc()
	}
	admit, blocked := g.admit()
	if !admit {
		return g.fallback(req, blocked)
	}
	chosen, costs, err := g.score(ctx, req)
	if err == nil {
		g.observeLearned(req, chosen)
		g.tel.serveLearned.Inc()
		return Result{Chosen: chosen, Estimates: costs, Origin: OriginLearned}, nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
		// Caller cancellation is not a model failure: no fallback (the
		// caller no longer wants a plan) and no breaker charge.
		return Result{}, err
	}
	f := classify(err)
	g.recordFailure(f)
	return g.fallback(req, f)
}

// ServeShed serves one query entirely from the fallback ladder — the load-
// shedding rung the fleet registry's admission gate degrades over-budget
// tenants to. The learned path never runs, so shedding costs no model time;
// the breaker is not charged and the sentinel takes no sample, because a
// shed is a resource decision, not evidence of model ill-health. cause (the
// admission gate's reason, e.g. the fleet's throttle sentinel) is wrapped
// under ErrLoadShed and ErrTransient in the Result's FallbackCause, so
// callers can errors.Is against any of the three.
func (g *Guard) ServeShed(req Request, cause error) (Result, error) {
	g.tel.serveTotal.Inc()
	g.tel.serveShed.Inc()
	shed := error(ErrLoadShed)
	if cause != nil {
		shed = fmt.Errorf("%w: %w", ErrLoadShed, cause)
	}
	return g.fallback(req, &failure{class: ErrTransient, cause: shed})
}

// ScoreLearnedKeyed scores candidates on the raw learned path — no breaker,
// no fallback, no injection — for the pre-deployment validation gate
// (loam.Validate), which must observe the model's unmasked behavior; serving
// traffic goes through Serve. This and the predictor's own internals are the
// only sanctioned SelectPlanKeyed call sites (loam-vet's guarddiscipline
// rule). A keyed request reuses cached plan estimates, to the same bits. The
// scorer is read once per call: a request concurrent with a lifecycle swap
// scores entirely under one model or the other.
func (g *Guard) ScoreLearnedKeyed(cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) (*plan.Plan, []float64, error) {
	g.mu.Lock()
	scorer := g.scorer
	g.mu.Unlock()
	return scorer.SelectPlanKeyed(cands, envs, key)
}

// selectLearned is ScoreLearnedKeyed for one request with a scorer panic
// contained, as safeNative contains the planner's: it becomes ErrScorerPanic.
func (g *Guard) selectLearned(req Request) (chosen *plan.Plan, costs []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			g.tel.scorerPanics.Inc()
			chosen, costs, err = nil, nil, fmt.Errorf("%w: %v", ErrScorerPanic, r)
		}
	}()
	return g.ScoreLearnedKeyed(req.Cands, req.Envs, req.EnvKey)
}

// admit ticks the breaker's logical clock and decides whether the learned
// path runs for this call.
func (g *Guard) admit() (bool, *failure) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.quarantined {
		return false, &failure{class: ErrPermanent, cause: ErrQuarantined}
	}
	admit, toHalfOpen := g.br.tick()
	if toHalfOpen {
		g.tel.breakerHalfOpened.Inc()
		g.tel.breakerState.Set(float64(BreakerHalfOpen))
	}
	if !admit {
		return false, &failure{class: ErrTransient, cause: ErrBreakerOpen}
	}
	return true, nil
}

// score runs the learned path with fault injection and the deadline check.
func (g *Guard) score(ctx context.Context, req Request) (*plan.Plan, []float64, error) {
	if g.inj.PredictorError(req.ID) {
		g.tel.injPredictor.Inc()
		return nil, nil, fmt.Errorf("%w: forced predictor error", faultinject.ErrInjected)
	}
	if g.inj.Delay(req.ID) {
		// Simulated stall: treated as a deadline hit without reading the
		// clock, so deadline behavior is testable deterministically.
		g.tel.injDelay.Inc()
		return nil, nil, fmt.Errorf("%w: %w", faultinject.ErrInjected, ErrDeadline)
	}
	chosen, costs, err := g.scoreLearned(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	if g.inj.CorruptNaN(req.ID) {
		g.tel.injNaN.Inc()
		nan := make([]float64, len(costs))
		for i := range nan {
			nan[i] = math.NaN()
		}
		return nil, nan, fmt.Errorf("%w: %w", faultinject.ErrInjected, predictor.ErrNoFiniteEstimate)
	}
	return chosen, costs, nil
}

// scoreLearned calls the scorer on the caller's goroutine and judges the call
// when it returns: a caller that gave up meanwhile gets its own ctx.Err()
// (checked first: cancellation is never booked as a model failure), and an
// answer later than the deadline is discarded as ErrDeadline, so an overloaded
// box still sheds to native through the breaker. Nothing pre-empts a scorer
// inside one call (DESIGN "Degraded-mode serving contract").
func (g *Guard) scoreLearned(ctx context.Context, req Request) (*plan.Plan, []float64, error) {
	sw := walltime.Start()
	chosen, costs, err := g.selectLearned(req)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, nil, ctxErr
	}
	if g.cfg.Deadline > 0 && sw.Elapsed() > g.cfg.Deadline {
		return nil, nil, ErrDeadline
	}
	return chosen, costs, err
}

// observeLearned records a learned-path success: breaker credit plus one
// regression-sentinel sample comparing the learned choice against the
// native default under the native optimizer's own rough cost model. When the
// sample quarantines the model, the registered drift hook fires after the
// mutex is released, on this serving goroutine — single-driver runs observe
// drift at a deterministic point in the serve sequence.
func (g *Guard) observeLearned(req Request, chosen *plan.Plan) {
	adverse, sampled := g.divergence(req, chosen)
	if g.observeLearnedLocked(adverse, sampled) && g.onQuarantine != nil {
		g.onQuarantine()
	}
}

// observeLearnedLocked applies one learned-path success under the mutex and
// reports whether this sample tripped the quarantine.
func (g *Guard) observeLearnedLocked(adverse, sampled bool) (tripped bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.br.recordSuccess() {
		g.tel.breakerClosed.Inc()
		g.tel.breakerState.Set(float64(BreakerClosed))
	}
	if !sampled {
		return false
	}
	g.tel.sentinelSamples.Inc()
	g.winN++
	if adverse {
		g.tel.sentinelAdverse.Inc()
		g.winAdverse++
	}
	if g.winN >= g.cfg.DivergenceWindow {
		if 2*g.winAdverse > g.winN {
			g.adverseRun++
			if g.adverseRun >= g.cfg.QuarantineWindows && !g.quarantined {
				g.quarantined = true
				g.tel.quarantineTrips.Inc()
				g.tel.quarantineActive.Set(1)
				tripped = true
			}
		} else {
			g.adverseRun = 0
		}
		g.winN, g.winAdverse = 0, 0
	}
	return tripped
}

// divergence scores one sentinel sample: is the learned choice's native
// rough cost beyond DivergenceBand × the default plan's? Rough costs are
// the native expert's opinion, so this is exactly the "learned estimates
// diverge adversely from native estimates" guardrail.
func (g *Guard) divergence(req Request, chosen *plan.Plan) (adverse, sampled bool) {
	if g.rough == nil || chosen == nil || len(req.Cands) == 0 || req.Cands[0] == nil {
		return false, false
	}
	learned := g.rough(req.Day, chosen)
	base := g.rough(req.Day, req.Cands[0])
	if math.IsNaN(learned) || math.IsNaN(base) || base <= 0 {
		return false, false
	}
	return learned/base > g.cfg.DivergenceBand, true
}

// recordFailure charges a classified failure to the breaker (when it counts)
// and the deadline counter.
func (g *Guard) recordFailure(f *failure) {
	if errors.Is(f.cause, ErrDeadline) {
		g.tel.deadlineHits.Inc()
	}
	if !countsTowardBreaker(f.cause) {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.br.recordFailure() {
		g.tel.breakerOpened.Inc()
		g.tel.breakerState.Set(float64(BreakerOpen))
	}
}

// fallback walks the degraded rungs: a fresh native plan, then the default
// candidate. Only when both are unavailable does serving fail.
func (g *Guard) fallback(req Request, cause *failure) (Result, error) {
	g.tel.reason(cause).Inc()
	if g.native != nil {
		if g.inj.NativeFail(req.ID) {
			g.tel.injNative.Inc()
		} else if p := g.safeNative(req.Query); p != nil {
			g.tel.fallbackNative.Inc()
			return Result{Chosen: p, Origin: OriginNativeFallback, FallbackCause: cause}, nil
		}
	}
	if len(req.Cands) > 0 && req.Cands[0] != nil {
		g.tel.fallbackDefault.Inc()
		return Result{Chosen: req.Cands[0], Origin: OriginDefaultFallback, FallbackCause: cause}, nil
	}
	g.tel.exhausted.Inc()
	return Result{}, fmt.Errorf("%w: %w", ErrNoServablePlan, cause)
}

// safeNative re-plans natively, converting a planner panic into a nil plan
// so a corrupted statistics view cannot crash serving.
func (g *Guard) safeNative(q *query.Query) (p *plan.Plan) {
	defer func() {
		if recover() != nil {
			p = nil
		}
	}()
	if q == nil {
		return nil
	}
	return g.native(q)
}

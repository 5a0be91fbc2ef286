package loam

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"loam/internal/encoding"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/query"
)

// guardedDeployment is serveDeployment with deploy options — used to arm
// fault injectors and tune the guard for the resilience acceptance tests.
func guardedDeployment(t *testing.T, seed uint64, nQueries int, opts ...DeployOption) (*Deployment, []*query.Query) {
	t.Helper()
	_, ps := tinyProject(t, seed)
	ps.RunDays(0, 6)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 5
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	dep, err := ps.Deploy(dcfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*query.Query
	for day := 6; len(qs) < nQueries; day++ {
		qs = append(qs, ps.Gen.Day(day)...)
	}
	return dep, qs[:nQueries]
}

// TestFullOutageServesEveryQuery is the tentpole acceptance test: with
// the injector forcing a 100% learned-path failure rate, 4 concurrent
// OptimizeCtx callers still get a valid non-nil Choice for every query — all
// from fallback rungs, all carrying the injected transient cause — and a
// fallback choice executes normally.
func TestFullOutageServesEveryQuery(t *testing.T) {
	inj := NewFaultInjector(7, FaultInjectorConfig{PredictorErrorRate: 1})
	dep, qs := guardedDeployment(t, 51, 16, WithFaultInjector(inj))

	choices, err := OptimizeAll(context.Background(), dep, qs, 4)
	if err != nil {
		t.Fatalf("full outage surfaced an error: %v", err)
	}
	for i, c := range choices {
		if c == nil || c.Chosen == nil {
			t.Fatalf("query %d: no plan served during outage", i)
		}
		if c.Origin == OriginLearned {
			t.Fatalf("query %d: learned origin under 100%% failure injection", i)
		}
		if !errors.Is(c.FallbackCause, ErrTransientFailure) {
			t.Fatalf("query %d: cause %v not transient", i, c.FallbackCause)
		}
		// Rejected calls fall back on the open breaker; admitted ones on the
		// injected fault itself.
		if !errors.Is(c.FallbackCause, ErrInjectedFault) && !errors.Is(c.FallbackCause, ErrBreakerOpen) {
			t.Fatalf("query %d: unexpected cause %v", i, c.FallbackCause)
		}
		if c.Estimates != nil {
			t.Fatalf("query %d: fallback choice carries learned estimates", i)
		}
	}
	// A native-fallback re-plan is not among the explorer's candidates.
	if choices[0].ChosenIdx != -1 {
		t.Fatalf("native fallback ChosenIdx = %d, want -1", choices[0].ChosenIdx)
	}
	if rec := dep.ExecuteChoice(choices[0]); rec == nil || rec.CPUCost <= 0 {
		t.Fatalf("fallback choice did not execute: %+v", rec)
	}
}

// TestFullOutageTelemetryByteIdentical: two identically-seeded outage runs
// snapshot byte-identically. Serving is sequential here so the breaker's
// arrival-order transitions are pinned; every guard.* value is an
// order-independent count, and the parallel-availability half of the
// acceptance lives in TestFullOutageServesEveryQuery.
func TestFullOutageTelemetryByteIdentical(t *testing.T) {
	outageRun := func() string {
		sim, ps := tinyProject(t, 52)
		ps.RunDays(0, 6)
		dcfg := DefaultDeployConfig()
		dcfg.TrainDays = 5
		dcfg.TestDays = 1
		dcfg.Predictor.Epochs = 2
		dcfg.DomainPlans = 8
		inj := NewFaultInjector(8, FaultInjectorConfig{PredictorErrorRate: 1})
		dep, err := ps.Deploy(dcfg, WithMetrics(sim.Telemetry()), WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		var qs []*query.Query
		for day := 6; len(qs) < 12; day++ {
			qs = append(qs, ps.Gen.Day(day)...)
		}
		if _, err := OptimizeAll(context.Background(), dep, qs[:12], 1); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sim.Metrics().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := outageRun()
	if b := outageRun(); a != b {
		t.Fatalf("same-seed outage snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	for _, want := range []string{
		"counter guard.serve.total 12",
		"counter guard.serve.learned 0",
		"counter guard.fallback.native 12",
		"counter guard.inject.predictor_errors",
		"gauge guard.breaker.state",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, a)
		}
	}
}

// TestNaNInjectionClassifiedPermanent: a corrupted (all-NaN) estimate vector
// degrades with a cause matching both the root ErrNoFiniteEstimate sentinel
// and ErrInjectedFault.
func TestNaNInjectionClassifiedPermanent(t *testing.T) {
	inj := NewFaultInjector(9, FaultInjectorConfig{NaNRate: 1})
	dep, qs := guardedDeployment(t, 53, 1, WithFaultInjector(inj))
	c, err := dep.OptimizeCtx(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.Origin == OriginLearned {
		t.Fatal("learned origin with all-NaN estimates")
	}
	if !errors.Is(c.FallbackCause, ErrNoFiniteEstimate) || !errors.Is(c.FallbackCause, ErrInjectedFault) {
		t.Fatalf("cause %v, want injected no-finite-estimate", c.FallbackCause)
	}
	if !errors.Is(c.FallbackCause, ErrPermanentFailure) {
		t.Fatalf("cause %v not classified permanent", c.FallbackCause)
	}
}

// TestNativeFailureFallsToDefault: when both the learned path and the native
// re-plan are failing, the pre-generated default candidate serves.
func TestNativeFailureFallsToDefault(t *testing.T) {
	inj := NewFaultInjector(10, FaultInjectorConfig{PredictorErrorRate: 1, NativeFailRate: 1})
	dep, qs := guardedDeployment(t, 54, 1, WithFaultInjector(inj))
	c, err := dep.OptimizeCtx(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.Origin != OriginDefaultFallback {
		t.Fatalf("origin %v, want default fallback", c.Origin)
	}
	if c.ChosenIdx != 0 || c.Chosen != c.Candidates[0] {
		t.Fatalf("default fallback chose index %d, want candidate 0", c.ChosenIdx)
	}
}

// TestWithGuardConfigWiring: a custom breaker configuration reaches the
// deployment's guard and drives its transitions.
func TestWithGuardConfigWiring(t *testing.T) {
	cfg := DefaultGuardConfig()
	cfg.WindowSize = 2
	cfg.TripThreshold = 1
	cfg.CooldownSteps = 100
	inj := NewFaultInjector(11, FaultInjectorConfig{PredictorErrorRate: 1})
	dep, qs := guardedDeployment(t, 55, 2, WithFaultInjector(inj), WithGuardConfig(cfg))

	if got := dep.Guard().Config().TripThreshold; got != 1 {
		t.Fatalf("guard TripThreshold = %d, want 1", got)
	}
	if _, err := dep.OptimizeCtx(context.Background(), qs[0]); err != nil {
		t.Fatal(err)
	}
	if got := dep.Guard().State(); got != BreakerOpen {
		t.Fatalf("state %v after single failure with threshold 1, want open", got)
	}
	c, err := dep.OptimizeCtx(context.Background(), qs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(c.FallbackCause, ErrBreakerOpen) {
		t.Fatalf("cause %v, want breaker-open rejection", c.FallbackCause)
	}
}

// TestHealthyServingStaysLearned: without an injector the guard is
// transparent — every choice is learned, with estimates, no fallback cause.
func TestHealthyServingStaysLearned(t *testing.T) {
	dep, qs := guardedDeployment(t, 56, 6)
	for i, q := range qs {
		c, err := dep.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if c.Origin != OriginLearned || c.FallbackCause != nil {
			t.Fatalf("query %d: origin %v cause %v on healthy path", i, c.Origin, c.FallbackCause)
		}
		if len(c.Estimates) != len(c.Candidates) || c.ChosenIdx < 0 {
			t.Fatalf("query %d: learned choice missing estimates or index", i)
		}
	}
	if dep.Guard().State() != BreakerClosed || dep.Guard().Quarantined() {
		t.Fatal("healthy serving disturbed the guard")
	}
}

// panicOnceScorer is the live predictor with a fault the injector cannot
// model: its first scoring call panics.
type panicOnceScorer struct {
	*predictor.Predictor
	fired atomic.Bool
}

func (s *panicOnceScorer) SelectPlanKeyed(cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) (*plan.Plan, []float64, error) {
	if s.fired.CompareAndSwap(false, true) {
		panic("index out of range [7] with length 4")
	}
	return s.Predictor.SelectPlanKeyed(cands, envs, key)
}

// TestScorerPanicServesAPlan: a deployment whose scorer panics once, under the
// default 2 s deadline, answers that OptimizeCtx with a fallback plan whose
// cause is a permanent ErrScorerPanic, and the next one from the learned path.
// The same test killed the test binary while the guard scored on a watchdog
// goroutine of its own: no caller's recover can reach a panic there.
func TestScorerPanicServesAPlan(t *testing.T) {
	dep, qs := guardedDeployment(t, 57, 2)
	dep.grd.SwapScorer(&panicOnceScorer{Predictor: dep.Predictor()})

	c, err := dep.OptimizeCtx(context.Background(), qs[0])
	if err != nil || c == nil || c.Chosen == nil {
		t.Fatalf("panicking scorer: choice %v, err %v; want a plan", c, err)
	}
	if c.Origin == OriginLearned || !errors.Is(c.FallbackCause, ErrScorerPanic) || !errors.Is(c.FallbackCause, ErrPermanentFailure) {
		t.Fatalf("origin %v cause %v, want a fallback with a permanent scorer-panic cause", c.Origin, c.FallbackCause)
	}
	if got := counterValue(t, dep.Metrics(), "guard.scorer.panics"); got != 1 {
		t.Fatalf("guard.scorer.panics = %d, want 1", got)
	}
	if c, err = dep.OptimizeCtx(context.Background(), qs[1]); err != nil || c.Origin != OriginLearned {
		t.Fatalf("after the panic: origin %v, err %v; want learned", c.Origin, err)
	}
}

// TestRootSentinelsAliasInternalOnes: satellite of the resilience surface —
// the root sentinels are the same error values the internal packages
// produce, so errors.Is works across the API boundary.
func TestRootSentinelsAliasInternalOnes(t *testing.T) {
	pairs := []struct {
		name       string
		root, deep error
	}{
		{"ErrNoTrainingData", ErrNoTrainingData, predictor.ErrNoTrainingData},
		{"ErrNoCandidates", ErrNoCandidates, predictor.ErrNoCandidates},
		{"ErrNoFiniteEstimate", ErrNoFiniteEstimate, predictor.ErrNoFiniteEstimate},
	}
	for _, p := range pairs {
		if p.root != p.deep || !errors.Is(p.root, p.deep) {
			t.Errorf("%s is not the internal sentinel", p.name)
		}
	}
	if ErrTransientFailure == nil || ErrPermanentFailure == nil || ErrLearnedDeadline == nil ||
		ErrBreakerOpen == nil || ErrModelQuarantined == nil || ErrNoServablePlan == nil ||
		ErrInjectedFault == nil || ErrScorerPanic == nil {
		t.Fatal("nil resilience sentinel")
	}
}

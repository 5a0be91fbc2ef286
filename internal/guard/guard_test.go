package guard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"loam/internal/encoding"
	"loam/internal/faultinject"
	"loam/internal/plan"
	"loam/internal/predictor"
	"loam/internal/query"
	"loam/internal/telemetry"
)

// stubScorer scripts the learned path: errs[i] decides call i (nil =
// success); past the script, defaultErr applies. A non-nil onCall runs at
// the top of every call, on whatever goroutine the guard scores on (deadline,
// cancellation, panic and goroutine-count tests).
type stubScorer struct {
	mu         sync.Mutex
	calls      int
	errs       []error
	defaultErr error
	onCall     func()
}

func (s *stubScorer) SelectPlanKeyed(cands []*plan.Plan, envs encoding.EnvSource, _ encoding.EnvKey) (*plan.Plan, []float64, error) {
	if s.onCall != nil {
		s.onCall()
	}
	s.mu.Lock()
	i := s.calls
	s.calls++
	s.mu.Unlock()
	err := s.defaultErr
	if i < len(s.errs) {
		err = s.errs[i]
	}
	if err != nil {
		return nil, nil, err
	}
	if len(cands) == 0 {
		return nil, nil, predictor.ErrNoCandidates
	}
	return cands[len(cands)-1], []float64{2, 1}, nil
}

// testHarness bundles a guard over a stub scorer with a two-candidate
// request and a registry for counter assertions.
type testHarness struct {
	g      *Guard
	req    Request
	reg    *telemetry.Registry
	native *plan.Plan
}

func newHarness(cfg Config, sc Scorer, mutate func(*Options)) *testHarness {
	nativePlan := &plan.Plan{}
	reg := telemetry.NewRegistry()
	o := Options{
		Config:  cfg,
		Scorer:  sc,
		Native:  func(q *query.Query) *plan.Plan { return nativePlan },
		Metrics: reg,
	}
	if mutate != nil {
		mutate(&o)
	}
	return &testHarness{
		g:      New(o),
		req:    Request{ID: "q1", Query: &query.Query{ID: "q1"}, Cands: []*plan.Plan{{}, {}}, Envs: encoding.NoEnv()},
		reg:    reg,
		native: nativePlan,
	}
}

func (h *testHarness) counter(t *testing.T, name string) int64 {
	t.Helper()
	return h.reg.Counter(name).Value()
}

// smallCfg is a breaker configuration sized so tests can walk a full cycle
// in a handful of calls, with the wall-clock deadline check off.
func smallCfg() Config {
	return Config{
		Deadline:       -1, // negative: normalize keeps it, no deadline
		WindowSize:     4,
		TripThreshold:  2,
		CooldownSteps:  3,
		HalfOpenProbes: 2,
	}
}

var errScore = errors.New("scorer exploded")

// TestServeShed pins the load-shedding rung: the learned path never runs,
// the native fallback serves, the breaker takes no charge, and the cause
// chain carries ErrTransient, ErrLoadShed, and the admission gate's own
// sentinel. With no native planner, shedding degrades to the default
// candidate rather than failing.
func TestServeShed(t *testing.T) {
	errThrottled := errors.New("fleet: tenant over budget")
	sc := &stubScorer{}
	h := newHarness(smallCfg(), sc, nil)

	res, err := h.g.ServeShed(h.req, errThrottled)
	if err != nil {
		t.Fatal(err)
	}
	if res.Origin != OriginNativeFallback || res.Chosen != h.native {
		t.Fatalf("shed served origin %v, want native fallback", res.Origin)
	}
	for _, sentinel := range []error{ErrTransient, ErrLoadShed, errThrottled} {
		if !errors.Is(res.FallbackCause, sentinel) {
			t.Fatalf("cause chain lost %v: %v", sentinel, res.FallbackCause)
		}
	}
	if sc.calls != 0 {
		t.Fatalf("shed ran the learned path %d times", sc.calls)
	}
	if got := h.counter(t, "guard.serve.shed"); got != 1 {
		t.Fatalf("guard.serve.shed = %d, want 1", got)
	}
	if got := h.counter(t, "guard.serve.total"); got != 1 {
		t.Fatalf("guard.serve.total = %d, want 1", got)
	}
	if got := h.counter(t, "guard.fallback.reason.load_shed"); got != 1 {
		t.Fatalf("guard.fallback.reason.load_shed = %d, want 1", got)
	}
	// Sheds are not model failures: the breaker never opens no matter how
	// many land in the window.
	for i := 0; i < 8; i++ {
		if _, err := h.g.ServeShed(h.req, errThrottled); err != nil {
			t.Fatal(err)
		}
	}
	if st := h.g.State(); st != BreakerClosed {
		t.Fatalf("shedding charged the breaker: state %v", st)
	}
	if got := h.counter(t, "guard.breaker.opened"); got != 0 {
		t.Fatalf("breaker opened %d times under pure shedding", got)
	}

	// Nil cause: the chain is just class + ErrLoadShed.
	res, err = h.g.ServeShed(h.req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.FallbackCause, ErrLoadShed) {
		t.Fatalf("nil-cause shed lost ErrLoadShed: %v", res.FallbackCause)
	}

	// No native planner: the default candidate is the shedding rung.
	h2 := newHarness(smallCfg(), &stubScorer{}, func(o *Options) { o.Native = nil })
	res, err = h2.g.ServeShed(h2.req, errThrottled)
	if err != nil {
		t.Fatal(err)
	}
	if res.Origin != OriginDefaultFallback || res.Chosen != h2.req.Cands[0] {
		t.Fatalf("nativeless shed served origin %v", res.Origin)
	}
}

// TestRecoveryCyclePinnedSequence drives the breaker through a full
// closed → open → half-open → closed cycle with a scripted scorer and pins
// the exact per-call (origin, state, cause) event sequence — the
// deterministic recovery test the logical (step-clocked, not wall-clocked)
// cooldown makes possible.
func TestRecoveryCyclePinnedSequence(t *testing.T) {
	sc := &stubScorer{errs: []error{nil, errScore, errScore}}
	h := newHarness(smallCfg(), sc, nil)

	type event struct {
		origin Origin
		state  BreakerState
		cause  error // sentinel the FallbackCause must match; nil = learned
	}
	expected := []event{
		{OriginLearned, BreakerClosed, nil},                 // healthy
		{OriginNativeFallback, BreakerClosed, ErrTransient}, // failure 1/2
		{OriginNativeFallback, BreakerOpen, ErrTransient},   // failure 2/2 trips
		{OriginNativeFallback, BreakerOpen, ErrBreakerOpen}, // cooldown 3→2
		{OriginNativeFallback, BreakerOpen, ErrBreakerOpen}, // cooldown 2→1
		{OriginLearned, BreakerHalfOpen, nil},               // cooldown expires, probe 1
		{OriginLearned, BreakerClosed, nil},                 // probe 2 closes
		{OriginLearned, BreakerClosed, nil},                 // healthy again
	}
	for i, want := range expected {
		res, err := h.g.Serve(context.Background(), h.req)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if res.Origin != want.origin {
			t.Fatalf("call %d: origin %v, want %v", i, res.Origin, want.origin)
		}
		if got := h.g.State(); got != want.state {
			t.Fatalf("call %d: state %v, want %v", i, got, want.state)
		}
		if want.cause == nil {
			if res.FallbackCause != nil {
				t.Fatalf("call %d: unexpected cause %v", i, res.FallbackCause)
			}
		} else if !errors.Is(res.FallbackCause, want.cause) {
			t.Fatalf("call %d: cause %v does not match %v", i, res.FallbackCause, want.cause)
		}
		if res.Chosen == nil {
			t.Fatalf("call %d: nil plan served", i)
		}
	}
	for name, want := range map[string]int64{
		"guard.serve.total":                     8,
		"guard.serve.learned":                   4,
		"guard.fallback.native":                 4,
		"guard.breaker.opened":                  1,
		"guard.breaker.half_opened":             1,
		"guard.breaker.closed":                  1,
		"guard.fallback.reason.breaker_open":    2,
		"guard.fallback.reason.predictor_error": 2,
	} {
		if got := h.counter(t, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestHalfOpenProbeFailureReopens: a failed probe sends the breaker straight
// back to open with a fresh cooldown.
func TestHalfOpenProbeFailureReopens(t *testing.T) {
	cfg := smallCfg()
	cfg.CooldownSteps = 2
	sc := &stubScorer{defaultErr: errScore}
	h := newHarness(cfg, sc, nil)

	// Two failures trip; one rejected call burns the cooldown; the next is
	// a half-open probe that fails and reopens.
	for i := 0; i < 4; i++ {
		if _, err := h.g.Serve(context.Background(), h.req); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.g.State(); got != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", got)
	}
	if got := h.counter(t, "guard.breaker.opened"); got != 2 {
		t.Fatalf("opened %d times, want 2", got)
	}
	if got := h.counter(t, "guard.breaker.closed"); got != 0 {
		t.Fatalf("closed %d times, want 0", got)
	}
}

// TestFailureClassification pins the taxonomy: injected faults and deadline
// hits are transient; no-candidates and no-finite-estimate are permanent;
// and only model-health failures charge the breaker.
func TestFailureClassification(t *testing.T) {
	t.Run("injected predictor error is transient", func(t *testing.T) {
		inj := faultinject.New(1, faultinject.Config{PredictorErrorRate: 1})
		h := newHarness(smallCfg(), &stubScorer{}, func(o *Options) { o.Injector = inj })
		res, err := h.g.Serve(context.Background(), h.req)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(res.FallbackCause, ErrTransient) || !errors.Is(res.FallbackCause, faultinject.ErrInjected) {
			t.Fatalf("cause %v: want transient + injected", res.FallbackCause)
		}
		if errors.Is(res.FallbackCause, ErrPermanent) {
			t.Fatal("injected fault classified permanent")
		}
	})

	t.Run("no candidates is permanent and never trips the breaker", func(t *testing.T) {
		sc := &stubScorer{defaultErr: predictor.ErrNoCandidates}
		h := newHarness(smallCfg(), sc, nil)
		for i := 0; i < 10; i++ {
			res, err := h.g.Serve(context.Background(), h.req)
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(res.FallbackCause, ErrPermanent) {
				t.Fatalf("cause %v: want permanent", res.FallbackCause)
			}
		}
		if got := h.g.State(); got != BreakerClosed {
			t.Fatalf("no-candidates failures tripped the breaker (state %v)", got)
		}
		if got := h.counter(t, "guard.fallback.reason.no_candidates"); got != 10 {
			t.Fatalf("no_candidates reason = %d, want 10", got)
		}
	})

	t.Run("no finite estimate is permanent and charges the breaker", func(t *testing.T) {
		sc := &stubScorer{defaultErr: predictor.ErrNoFiniteEstimate}
		h := newHarness(smallCfg(), sc, nil)
		res, err := h.g.Serve(context.Background(), h.req)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(res.FallbackCause, ErrPermanent) || !errors.Is(res.FallbackCause, predictor.ErrNoFiniteEstimate) {
			t.Fatalf("cause %v: want permanent + no-finite-estimate", res.FallbackCause)
		}
		if _, err := h.g.Serve(context.Background(), h.req); err != nil {
			t.Fatal(err)
		}
		if got := h.g.State(); got != BreakerOpen {
			t.Fatalf("NaN-model failures did not trip the breaker (state %v)", got)
		}
	})
}

// TestFallbackLadder walks the rungs: native re-plan first, the default
// candidate when native fails, and ErrNoServablePlan only when nothing is
// left.
func TestFallbackLadder(t *testing.T) {
	failing := func() Scorer { return &stubScorer{defaultErr: errScore} }

	t.Run("native rung serves first", func(t *testing.T) {
		h := newHarness(smallCfg(), failing(), nil)
		res, err := h.g.Serve(context.Background(), h.req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Origin != OriginNativeFallback || res.Chosen != h.native {
			t.Fatalf("origin %v chosen %p, want native fallback plan %p", res.Origin, res.Chosen, h.native)
		}
	})

	t.Run("no native planner falls to the default candidate", func(t *testing.T) {
		h := newHarness(smallCfg(), failing(), func(o *Options) { o.Native = nil })
		res, err := h.g.Serve(context.Background(), h.req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Origin != OriginDefaultFallback || res.Chosen != h.req.Cands[0] {
			t.Fatalf("origin %v, want default fallback of cands[0]", res.Origin)
		}
	})

	t.Run("injected native failure falls to the default candidate", func(t *testing.T) {
		inj := faultinject.New(2, faultinject.Config{PredictorErrorRate: 1, NativeFailRate: 1})
		h := newHarness(smallCfg(), &stubScorer{}, func(o *Options) { o.Injector = inj })
		res, err := h.g.Serve(context.Background(), h.req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Origin != OriginDefaultFallback {
			t.Fatalf("origin %v, want default fallback", res.Origin)
		}
		if h.counter(t, "guard.inject.native_failures") != 1 {
			t.Fatal("native-failure injection not counted")
		}
	})

	t.Run("a native panic is contained", func(t *testing.T) {
		h := newHarness(smallCfg(), failing(), func(o *Options) {
			o.Native = func(q *query.Query) *plan.Plan { panic("corrupt view") }
		})
		res, err := h.g.Serve(context.Background(), h.req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Origin != OriginDefaultFallback {
			t.Fatalf("origin %v, want default fallback after native panic", res.Origin)
		}
	})

	t.Run("every rung gone yields ErrNoServablePlan", func(t *testing.T) {
		h := newHarness(smallCfg(), failing(), func(o *Options) { o.Native = nil })
		req := h.req
		req.Cands = nil
		_, err := h.g.Serve(context.Background(), req)
		if !errors.Is(err, ErrNoServablePlan) {
			t.Fatalf("err %v, want ErrNoServablePlan", err)
		}
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("err %v should still expose the classified cause", err)
		}
		if h.counter(t, "guard.serve.exhausted") != 1 {
			t.Fatal("exhausted not counted")
		}
	})
}

// TestRegressionSentinelQuarantine: adverse learned choices for K
// consecutive windows quarantine the model; the guard then serves fallbacks
// with ErrQuarantined until Reset.
func TestRegressionSentinelQuarantine(t *testing.T) {
	cfg := smallCfg()
	cfg.DivergenceBand = 2
	cfg.DivergenceWindow = 2
	cfg.QuarantineWindows = 2
	h := newHarness(cfg, &stubScorer{}, nil)
	// The stub picks the last candidate; rough prices it 10× the default.
	h.g.rough = func(day int, p *plan.Plan) float64 {
		if p == h.req.Cands[0] {
			return 1
		}
		return 10
	}

	// Two windows of two adverse samples each → quarantine.
	for i := 0; i < 4; i++ {
		res, err := h.g.Serve(context.Background(), h.req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Origin != OriginLearned {
			t.Fatalf("call %d: origin %v before quarantine", i, res.Origin)
		}
	}
	if !h.g.Quarantined() {
		t.Fatal("model not quarantined after 2 adverse windows")
	}
	res, err := h.g.Serve(context.Background(), h.req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Origin == OriginLearned || !errors.Is(res.FallbackCause, ErrQuarantined) {
		t.Fatalf("quarantined guard served origin %v cause %v", res.Origin, res.FallbackCause)
	}
	for name, want := range map[string]int64{
		"guard.sentinel.samples":         4,
		"guard.sentinel.adverse_samples": 4,
		"guard.quarantine.trips":         1,
	} {
		if got := h.counter(t, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	h.g.Reset()
	if h.g.Quarantined() {
		t.Fatal("Reset did not lift quarantine")
	}
	if res, err := h.g.Serve(context.Background(), h.req); err != nil || res.Origin != OriginLearned {
		t.Fatalf("after Reset: origin %v err %v", res.Origin, err)
	}
}

// TestHealthySentinelNeverQuarantines: when learned choices stay inside the
// band, consecutive-window runs reset and the model keeps serving.
func TestHealthySentinelNeverQuarantines(t *testing.T) {
	cfg := smallCfg()
	cfg.DivergenceWindow = 2
	cfg.QuarantineWindows = 1
	h := newHarness(cfg, &stubScorer{}, nil)
	h.g.rough = func(day int, p *plan.Plan) float64 { return 5 } // identical costs
	for i := 0; i < 20; i++ {
		if res, err := h.g.Serve(context.Background(), h.req); err != nil || res.Origin != OriginLearned {
			t.Fatalf("call %d: origin %v err %v", i, res.Origin, err)
		}
	}
	if h.g.Quarantined() {
		t.Fatal("healthy model quarantined")
	}
	if got := h.counter(t, "guard.sentinel.adverse_samples"); got != 0 {
		t.Fatalf("adverse samples = %d, want 0", got)
	}
}

// TestDeadlineWatchdog runs a scorer that answers after a real
// (tests-only-short) deadline: the guard discards the late answer and degrades
// to the native fallback with a transient ErrDeadline cause, charging the
// breaker once. Scoring is synchronous, so the scorer must return by itself —
// the version of this test that parked the stub on a channel closed by defer,
// for a watchdog goroutine to abandon, hangs forever on this guard; that is
// the point.
func TestDeadlineWatchdog(t *testing.T) {
	cfg := smallCfg()
	cfg.Deadline = 10 * time.Millisecond
	sc := &stubScorer{onCall: func() { time.Sleep(2 * cfg.Deadline) }}
	h := newHarness(cfg, sc, nil)

	res, err := h.g.Serve(context.Background(), h.req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Origin != OriginNativeFallback {
		t.Fatalf("origin %v, want native fallback", res.Origin)
	}
	if !errors.Is(res.FallbackCause, ErrDeadline) || !errors.Is(res.FallbackCause, ErrTransient) {
		t.Fatalf("cause %v, want transient deadline", res.FallbackCause)
	}
	if got := h.counter(t, "guard.deadline.hits"); got != 1 {
		t.Fatalf("deadline hits = %d, want 1", got)
	}
	if h.g.br.fails != 1 {
		t.Fatalf("breaker window holds %d failures, want 1", h.g.br.fails)
	}
}

// TestInjectedDelayIsDeterministicDeadline: the injector's delay fault is a
// logical stall — a deadline hit with no real timer and no sleeping.
func TestInjectedDelayIsDeterministicDeadline(t *testing.T) {
	inj := faultinject.New(4, faultinject.Config{DelayRate: 1})
	h := newHarness(smallCfg(), &stubScorer{}, func(o *Options) { o.Injector = inj })
	res, err := h.g.Serve(context.Background(), h.req)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.FallbackCause, ErrDeadline) || !errors.Is(res.FallbackCause, faultinject.ErrInjected) {
		t.Fatalf("cause %v, want injected deadline", res.FallbackCause)
	}
	if h.counter(t, "guard.deadline.hits") != 1 || h.counter(t, "guard.inject.delays") != 1 {
		t.Fatal("delay injection not counted as a deadline hit")
	}
}

// TestCancellationPassesThrough: a caller that cancels while the scorer runs
// gets its own ctx.Err() unwrapped — the answer discarded, no fallback plan,
// no breaker charge — so OptimizeCtx and Route hand the caller its own
// ctx.Err(). The deadline is armed to pin the order of the two checks:
// cancellation is looked at first. (The stub returns by itself; see
// TestDeadlineWatchdog.)
func TestCancellationPassesThrough(t *testing.T) {
	cfg := smallCfg()
	cfg.Deadline = time.Nanosecond // already exceeded when the scorer returns
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := newHarness(cfg, &stubScorer{onCall: cancel}, nil)

	_, err := h.g.Serve(ctx, h.req)
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled unwrapped", err)
	}
	if h.g.State() != BreakerClosed || h.g.br.fails != 0 {
		t.Fatal("cancellation charged the breaker")
	}
	if h.counter(t, "guard.fallback.native")+h.counter(t, "guard.fallback.default") != 0 {
		t.Fatal("cancellation produced a fallback plan")
	}
	if h.counter(t, "guard.deadline.hits") != 0 {
		t.Fatal("cancellation counted as a deadline hit")
	}
}

// TestScorerPanicServesFallback: a panic inside the scorer is recovered on the
// serving goroutine — native fallback, a permanent ErrScorerPanic cause
// carrying the panic value, one breaker charge, guard.scorer.panics 1 — and
// the next call is served by the learned path. Before scoring moved onto the
// caller's goroutine the same stub killed the test binary: the panic was on
// the watchdog's goroutine, where nothing could recover it.
func TestScorerPanicServesFallback(t *testing.T) {
	first := true
	sc := &stubScorer{onCall: func() {
		if first {
			first = false
			panic("weights went missing")
		}
	}}
	h := newHarness(DefaultConfig(), sc, nil)

	res, err := h.g.Serve(context.Background(), h.req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Origin != OriginNativeFallback || res.Chosen != h.native {
		t.Fatalf("origin %v, want the native fallback plan", res.Origin)
	}
	if !errors.Is(res.FallbackCause, ErrScorerPanic) || !errors.Is(res.FallbackCause, ErrPermanent) {
		t.Fatalf("cause %v, want permanent scorer panic", res.FallbackCause)
	}
	if !strings.Contains(res.FallbackCause.Error(), "weights went missing") {
		t.Fatalf("cause %q lost the panic value", res.FallbackCause)
	}
	if h.counter(t, "guard.scorer.panics") != 1 || h.g.br.fails != 1 {
		t.Fatalf("panics = %d, breaker failures = %d; want 1 and 1", h.counter(t, "guard.scorer.panics"), h.g.br.fails)
	}
	if res, err = h.g.Serve(context.Background(), h.req); err != nil || res.Origin != OriginLearned {
		t.Fatalf("call after the panic: origin %v, err %v; want learned", res.Origin, err)
	}
}

// TestServeStartsNoGoroutine: under the default 2 s deadline the scorer runs
// on the caller's goroutine — no goroutine exists that did not before the call
// — and arming the deadline allocates nothing (it is one more clock read).
func TestServeStartsNoGoroutine(t *testing.T) {
	var inScorer int
	sc := &stubScorer{onCall: func() { inScorer = runtime.NumGoroutine() }}
	armed, unarmed := DefaultConfig(), DefaultConfig()
	unarmed.Deadline = -1
	h := newHarness(armed, sc, nil)
	before := runtime.NumGoroutine()
	if _, err := h.g.Serve(context.Background(), h.req); err != nil {
		t.Fatal(err)
	}
	if inScorer != before {
		t.Fatalf("%d goroutines inside the scorer, %d before Serve", inScorer, before)
	}

	allocs := func(cfg Config) float64 {
		g := newHarness(cfg, &stubScorer{}, nil).g
		return testing.AllocsPerRun(200, func() {
			if _, err := g.Serve(context.Background(), h.req); err != nil {
				t.Fatal(err)
			}
		})
	}
	if on, off := allocs(armed), allocs(unarmed); on > off {
		t.Fatalf("Serve allocates %.0f with the deadline armed, %.0f without", on, off)
	}
}

// TestConcurrentServeUnderFullOutage hammers one guard from many goroutines
// with a 100% injected failure rate (run with -race): every call must serve
// a fallback plan, and the order-independent counters must balance exactly.
func TestConcurrentServeUnderFullOutage(t *testing.T) {
	inj := faultinject.New(9, faultinject.Config{PredictorErrorRate: 1})
	h := newHarness(smallCfg(), &stubScorer{}, func(o *Options) { o.Injector = inj })

	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				res, err := h.g.Serve(context.Background(), h.req)
				if err != nil {
					t.Errorf("goroutine %d call %d: %v", g, k, err)
					return
				}
				if res.Chosen == nil || res.Origin == OriginLearned {
					t.Errorf("goroutine %d call %d: origin %v chosen %p", g, k, res.Origin, res.Chosen)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(goroutines * perG)
	if got := h.counter(t, "guard.serve.total"); got != total {
		t.Fatalf("serve.total = %d, want %d", got, total)
	}
	if got := h.counter(t, "guard.fallback.native"); got != total {
		t.Fatalf("fallback.native = %d, want %d (every call must degrade)", got, total)
	}
	if got := h.counter(t, "guard.serve.learned"); got != 0 {
		t.Fatalf("learned = %d under full outage", got)
	}
	if got := h.counter(t, "guard.breaker.opened"); got < 1 {
		t.Fatalf("breaker never opened under sustained failure (opened=%d)", got)
	}
}

// TestConfigNormalization: zero fields inherit defaults; Deadline 0 stays 0
// (no deadline).
func TestConfigNormalization(t *testing.T) {
	g := New(Options{Scorer: &stubScorer{}})
	d := DefaultConfig()
	if g.Config().WindowSize != d.WindowSize || g.Config().TripThreshold != d.TripThreshold {
		t.Fatalf("zero config not normalized: %+v", g.Config())
	}
	cfg := DefaultConfig()
	cfg.Deadline = 0
	if got := New(Options{Config: cfg, Scorer: &stubScorer{}}).Config().Deadline; got != 0 {
		t.Fatalf("explicit zero deadline overridden to %v", got)
	}
}

// quarantineHarness builds a guard whose sentinel quarantines after two
// 2-sample adverse windows (the stub picks the last candidate; rough prices
// it 10x the default) and drives it there.
func quarantineHarness(t *testing.T) *testHarness {
	t.Helper()
	cfg := smallCfg()
	cfg.DivergenceBand = 2
	cfg.DivergenceWindow = 2
	cfg.QuarantineWindows = 2
	h := newHarness(cfg, &stubScorer{}, nil)
	h.g.rough = func(day int, p *plan.Plan) float64 {
		if p == h.req.Cands[0] {
			return 1
		}
		return 10
	}
	for i := 0; i < 4; i++ {
		if _, err := h.g.Serve(context.Background(), h.req); err != nil {
			t.Fatal(err)
		}
	}
	if !h.g.Quarantined() {
		t.Fatal("harness failed to quarantine")
	}
	return h
}

// TestSwapScorerReleasesQuarantine pins the lifecycle seam's guard side: a
// scorer swap installs the new model, restarts the breaker and sentinel,
// lifts the quarantine, and counts the release.
func TestSwapScorerReleasesQuarantine(t *testing.T) {
	h := quarantineHarness(t)
	h.g.SwapScorer(&stubScorer{})
	if h.g.Quarantined() {
		t.Fatal("SwapScorer did not lift quarantine")
	}
	if got := h.counter(t, "guard.quarantine.released"); got != 1 {
		t.Fatalf("guard.quarantine.released = %d, want 1", got)
	}
	if got := h.reg.Gauge("guard.quarantine.active").Value(); got != 0 {
		t.Fatalf("guard.quarantine.active = %v, want 0", got)
	}
	if h.g.State() != BreakerClosed {
		t.Fatalf("breaker not restarted: %v", h.g.State())
	}
	res, err := h.g.Serve(context.Background(), h.req)
	if err != nil || res.Origin != OriginLearned {
		t.Fatalf("swapped scorer not serving: origin %v err %v", res.Origin, err)
	}
	// The sentinel restarted too: one window of history is gone, so the
	// same adverse cadence needs two full windows again to re-trip.
	for i := 0; i < 3; i++ {
		if _, err := h.g.Serve(context.Background(), h.req); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.counter(t, "guard.quarantine.trips"); got != 2 {
		t.Fatalf("guard.quarantine.trips = %d, want 2 (fresh windows after swap)", got)
	}
}

// TestSwapScorerNilIsNoop: a nil swap must not clear the serving scorer or
// disturb guard state.
func TestSwapScorerNilIsNoop(t *testing.T) {
	h := quarantineHarness(t)
	h.g.SwapScorer(nil)
	if !h.g.Quarantined() {
		t.Fatal("nil swap disturbed quarantine state")
	}
	if got := h.counter(t, "guard.quarantine.released"); got != 0 {
		t.Fatalf("nil swap counted a release: %d", got)
	}
}

// TestResetCountsQuarantineRelease: the manual operator path reports the
// same release telemetry as the lifecycle path.
func TestResetCountsQuarantineRelease(t *testing.T) {
	h := quarantineHarness(t)
	h.g.Reset()
	if got := h.counter(t, "guard.quarantine.released"); got != 1 {
		t.Fatalf("guard.quarantine.released = %d, want 1", got)
	}
	if got := h.reg.Gauge("guard.quarantine.active").Value(); got != 0 {
		t.Fatalf("guard.quarantine.active = %v, want 0", got)
	}
	// Reset without a quarantine must not count a release.
	h.g.Reset()
	if got := h.counter(t, "guard.quarantine.released"); got != 1 {
		t.Fatalf("unquarantined Reset counted a release: %d", got)
	}
}

// TestDriftHookFiresOutsideLock: the sentinel trip invokes the drift hook on
// the serving goroutine, after the guard lock is released — calling back
// into the guard from the hook (as the lifecycle's rollback path does) must
// not deadlock.
func TestDriftHookFiresOutsideLock(t *testing.T) {
	cfg := smallCfg()
	cfg.DivergenceBand = 2
	cfg.DivergenceWindow = 2
	cfg.QuarantineWindows = 1
	h := newHarness(cfg, &stubScorer{}, nil)
	h.g.rough = func(day int, p *plan.Plan) float64 {
		if p == h.req.Cands[0] {
			return 1
		}
		return 10
	}
	fired := 0
	h.g.SetDriftHook(func() {
		fired++
		// Reentrancy: the lifecycle swaps a fresh model in from the hook.
		h.g.SwapScorer(&stubScorer{})
	})
	for i := 0; i < 2; i++ {
		if _, err := h.g.Serve(context.Background(), h.req); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 1 {
		t.Fatalf("drift hook fired %d times, want 1", fired)
	}
	if h.g.Quarantined() {
		t.Fatal("hook's SwapScorer should have released the quarantine")
	}
	if got := h.counter(t, "guard.quarantine.released"); got != 1 {
		t.Fatalf("guard.quarantine.released = %d, want 1", got)
	}
}

// BenchmarkGuardServe is the guard's own cost per learned serve: a stub
// scorer, no rough-cost sentinel, the default config against the same config
// with the deadline off. With scoring on the caller's goroutine the two
// differ by one clock read (0.28 against 0.22 µs, 1 alloc each, on the 2-vCPU
// box); the watchdog hand-off read 2.2 µs and 7 allocs in this loop, and
// 14–36 µs in a closed loop whose client thinks between requests.
func BenchmarkGuardServe(b *testing.B) {
	off := DefaultConfig()
	off.Deadline = -1
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"DefaultConfig", DefaultConfig()}, {"Deadline=-1", off}} {
		b.Run(bc.name, func(b *testing.B) {
			h := newHarness(bc.cfg, &stubScorer{}, nil)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.g.Serve(ctx, h.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package loam

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

// lifecycleProject builds the tiny project every forced-drift fixture deploys,
// in a fresh simulation with eight days of history. It is seeded only by its
// arguments, so every call replays an identical workload — the property that
// makes "crash at the Nth durable write" the same write in every run of the
// kill-point sweep.
func lifecycleProject(seed uint64, name string) *ProjectSim {
	sim := NewSimulation(seed, DefaultSimulationConfig())
	cfg := DefaultProjectConfig(name)
	cfg.Archetype.NumTables = 12
	cfg.Workload.NumTemplates = 8
	cfg.Workload.QueriesPerDayMean = 8
	ps := sim.AddProject(cfg)
	ps.RunDays(0, 8)
	return ps
}

// lifecycleDeployConfig trains lifecycleProject's model: six days of history,
// two of validation.
func lifecycleDeployConfig() DeployConfig {
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 6
	dcfg.TestDays = 2
	dcfg.Predictor.Epochs = 3
	dcfg.DomainPlans = 16
	return dcfg
}

// hairTriggerGuardConfig tunes the serving guard to quarantine quickly: a
// near-zero divergence band makes every learned sample adverse, so one
// 4-sample sentinel window indicts whatever model serves.
func hairTriggerGuardConfig() GuardConfig {
	gcfg := DefaultGuardConfig()
	gcfg.DivergenceBand = 0.01
	gcfg.DivergenceWindow = 4
	gcfg.QuarantineWindows = 1
	return gcfg
}

// lifecycleHarness deploys lifecycleProject behind the hair-trigger guard, so
// drift→retrain→promote→rollback trajectories run in a handful of serves.
// The drift detector is parked out of reach (quickLifecycleConfig): the
// sentinel is the only drift trigger, which keeps each test's trajectory
// easy to reason about.
func lifecycleHarness(t *testing.T, seed uint64, lcfg LifecycleConfig, opts ...DeployOption) (*ProjectSim, *Deployment) {
	t.Helper()
	ps := lifecycleProject(seed, "lc")
	dep, err := ps.Deploy(lifecycleDeployConfig(),
		append(opts, WithGuardConfig(hairTriggerGuardConfig()), WithLifecycle(lcfg))...)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return ps, dep
}

// quickLifecycleConfig is a lifecycle tuned to react within a short serve
// stream: retrains as soon as 8 observations exist, accepts generously
// (shadow scoring on a tiny drifting window is noisy), and parks the drift
// detector so the guard sentinel alone drives the loop.
func quickLifecycleConfig() LifecycleConfig {
	lcfg := DefaultLifecycleConfig()
	lcfg.MinFeedback = 8
	lcfg.RetrainWindow = 64
	lcfg.ShadowWindow = 32
	lcfg.AcceptTolerance = 10
	lcfg.Probation = 16
	lcfg.DomainPlans = 8
	lcfg.Drift = DriftConfig{Window: 1 << 20, Threshold: 1e9, Windows: 1 << 20}
	return lcfg
}

// serveDay optimizes and executes one generated day of queries, failing the
// test on any serve error (the lifecycle must never cost availability), and
// returns how many it served.
func serveDay(t *testing.T, ps *ProjectSim, dep *Deployment, day int) int {
	t.Helper()
	qs := ps.Gen.Day(day)
	for _, q := range qs {
		c, err := dep.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("optimize day %d: %v", day, err)
		}
		dep.ExecuteChoice(c)
	}
	return len(qs)
}

func TestLifecycleDriftRetrainPromotes(t *testing.T) {
	ps, dep := lifecycleHarness(t, 31, quickLifecycleConfig())
	lc := dep.Lifecycle()
	if lc == nil {
		t.Fatal("lifecycle not attached")
	}
	if v := lc.Version(); v != 1 {
		t.Fatalf("initial version %d", v)
	}
	incumbent := dep.Predictor()

	// Serve query-by-query and stop at the first promotion: the tiny
	// divergence band keeps indicting whatever model serves, so left
	// running the loop cycles promote→rollback→promote indefinitely.
serve:
	for day := 8; day < 14; day++ {
		for _, q := range ps.Gen.Day(day) {
			c, err := dep.OptimizeCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("optimize day %d: %v", day, err)
			}
			dep.ExecuteChoice(c)
			if lc.Version() != 1 {
				break serve
			}
		}
	}
	if v := lc.Version(); v != 2 {
		t.Fatalf("expected promotion to version 2, got %d", v)
	}
	if dep.Predictor() == incumbent {
		t.Fatal("promotion did not swap the serving predictor")
	}
	if !lc.InProbation() {
		t.Fatal("freshly promoted model should be in probation")
	}
	reg := dep.Telemetry()
	if n := reg.Counter("lifecycle.promote").Value(); n != 1 {
		t.Fatalf("lifecycle.promote = %d", n)
	}
	if n := reg.Counter("lifecycle.drift.signals").Value(); n == 0 {
		t.Fatal("no drift signals counted")
	}
	if n := reg.Counter("guard.quarantine.released").Value(); n == 0 {
		t.Fatal("promotion should release the sentinel quarantine")
	}
	if dep.Guard().Quarantined() {
		t.Fatal("still quarantined after promotion")
	}
	if lc.FeedbackTotal() == 0 || lc.FeedbackLen() == 0 {
		t.Fatal("feedback store not harvesting")
	}
}

func TestLifecycleSentinelTripDuringProbationRollsBack(t *testing.T) {
	ps, dep := lifecycleHarness(t, 31, quickLifecycleConfig())
	lc := dep.Lifecycle()
	incumbent := dep.Predictor()

	// Serve until the first promotion, then keep serving: the tiny
	// divergence band indicts the promoted model too, and the next sentinel
	// trip inside probation must roll back to the original model.
	rolledBack := false
	for day := 8; day < 20; day++ {
		serveDay(t, ps, dep, day)
		if dep.Telemetry().Counter("lifecycle.rollback").Value() > 0 {
			rolledBack = true
			break
		}
	}
	if !rolledBack {
		t.Fatal("no rollback within the serve budget")
	}
	if v := lc.Version(); v != 1 {
		t.Fatalf("rollback should restore version 1, got %d", v)
	}
	if dep.Predictor() != incumbent {
		t.Fatal("rollback did not restore the original predictor")
	}
	if lc.InProbation() {
		t.Fatal("probation should end with the rollback")
	}
	if dep.Guard().Quarantined() {
		t.Fatal("rollback should restart the guard unquarantined")
	}
}

// TestLifecycleRetrainFaultKeepsIncumbent is the chaos scenario: a retrain
// that fails mid-promote (injected) must leave the incumbent model serving
// — no swap, no version change, no availability loss.
func TestLifecycleRetrainFaultKeepsIncumbent(t *testing.T) {
	inj := NewFaultInjector(7, FaultInjectorConfig{RetrainFailRate: 1})
	ps, dep := lifecycleHarness(t, 31, quickLifecycleConfig(), WithFaultInjector(inj))
	lc := dep.Lifecycle()
	incumbent := dep.Predictor()

	for day := 8; day < 12; day++ {
		serveDay(t, ps, dep, day)
	}
	reg := dep.Telemetry()
	if n := reg.Counter("lifecycle.retrain.failed").Value(); n == 0 {
		t.Fatal("injected retrain failures never fired")
	}
	if n := reg.Counter("lifecycle.promote").Value(); n != 0 {
		t.Fatalf("a failed retrain must not promote, got %d promotions", n)
	}
	if v := lc.Version(); v != 1 {
		t.Fatalf("version moved to %d despite failed retrains", v)
	}
	if dep.Predictor() != incumbent {
		t.Fatal("serving predictor changed despite failed retrains")
	}
	// Availability: serveDay fails the test on any Optimize error, so
	// reaching here means every query was served (from the quarantine
	// fallback once the sentinel tripped).
	if n := reg.Counter("guard.fallback.native").Value(); n == 0 {
		t.Fatal("expected quarantined serving to fall back to native plans")
	}
}

// TestLifecycleSwapUnderConcurrentServing races promotions against parallel
// serving: concurrent Optimize calls must keep returning plans while the
// lifecycle hot-swaps models underneath them (run with -race).
func TestLifecycleSwapUnderConcurrentServing(t *testing.T) {
	ps, dep := lifecycleHarness(t, 31, quickLifecycleConfig())

	var wg sync.WaitGroup
	queries := ps.Gen.Day(8)
	for day := 9; day < 13; day++ {
		queries = append(queries, ps.Gen.Day(day)...)
	}
	// One executor goroutine drives the lifecycle (ExecuteChoice harvests
	// feedback and reacts); three reader goroutines hammer Optimize on a
	// disjoint query slice concurrently with the swaps.
	split := len(queries) / 4
	exec, readers := queries[:split], queries[split:]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, q := range exec {
			c, err := dep.OptimizeCtx(context.Background(), q)
			if err != nil {
				t.Errorf("executor optimize: %v", err)
				return
			}
			dep.ExecuteChoice(c)
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(readers); i += 3 {
				c, err := dep.OptimizeCtx(context.Background(), readers[i])
				if err != nil {
					t.Errorf("reader optimize: %v", err)
					return
				}
				if c.Chosen == nil {
					t.Error("nil plan under concurrent swap")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLifecycleTrajectoryDeterministic runs the same seeded drift→retrain→
// promote→rollback scenario twice and requires byte-identical telemetry
// snapshots — the lifecycle must not introduce any order- or wall-clock-
// dependent state — with every executed serve harvested exactly once.
func TestLifecycleTrajectoryDeterministic(t *testing.T) {
	run := func() (snap []byte, version, served int) {
		ps, dep := lifecycleHarness(t, 31, quickLifecycleConfig())
		for day := 8; day < 16; day++ {
			served += serveDay(t, ps, dep, day)
		}
		var buf bytes.Buffer
		if err := dep.Metrics().WriteText(&buf); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		return buf.Bytes(), dep.Lifecycle().Version(), served
	}
	a, va, served := run()
	b, vb, _ := run()
	if va != vb {
		t.Fatalf("version diverged: %d vs %d", va, vb)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed lifecycle runs snapshot differently:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		fmt.Sprintf("counter lifecycle.feedback.harvested %d\n", served),
		"counter lifecycle.retrain.runs", "counter guard.quarantine.trips",
		"gauge lifecycle.feedback.size", "gauge model.version",
	} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("snapshot lacks %q:\n%s", want, a)
		}
	}
}

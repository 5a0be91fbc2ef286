package loam

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"loam/internal/query"
	"loam/internal/telemetry"
)

// metricsRun drives one full identically-seeded pipeline — simulation,
// production history, training, concurrent serving — with everything routed
// into the simulation's shared registry, and returns the snapshot's text
// exposition.
func metricsRun(t *testing.T, seed uint64) string {
	t.Helper()
	sim, ps := tinyProject(t, seed)
	ps.RunDays(0, 6)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 5
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	dep, err := ps.Deploy(dcfg, WithMetrics(sim.Telemetry()))
	if err != nil {
		t.Fatal(err)
	}
	var qs []*query.Query
	for day := 6; len(qs) < 8; day++ {
		qs = append(qs, ps.Gen.Day(day)...)
	}
	if _, err := OptimizeAll(context.Background(), dep, qs[:8], 4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetricsSnapshotDeterministic runs the pipeline twice with the same
// seed — including 4 concurrent OptimizeCtx callers, so goroutine scheduling
// differs between runs — and requires byte-identical snapshot text: the
// telemetry layer's core contract.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	a := metricsRun(t, 41)
	b := metricsRun(t, 41)
	if a != b {
		t.Fatalf("same-seed snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	for _, want := range []string{
		"counter serve.optimize.total 8",
		"counter train.runs 1",
		"counter exec.executions",
		"gauge cluster.cpu_idle",
		"histogram serve.candidates",
		"timer serve.optimize.latency count=8",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("snapshot lacks %q:\n%s", want, a)
		}
	}
}

// TestDeployMetricsWiring checks the option plumbing: a supplied registry is
// the deployment's registry, the default is a fresh private one, and serving
// traffic lands in the snapshot.
func TestDeployMetricsWiring(t *testing.T) {
	_, ps := tinyProject(t, 42)
	ps.RunDays(0, 6)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 5
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 4

	reg := telemetry.NewRegistry()
	dep, err := ps.Deploy(dcfg, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if dep.Telemetry() != reg {
		t.Fatal("WithMetrics registry not wired")
	}
	if _, err := dep.OptimizeCtx(context.Background(), ps.Gen.Day(6)[0]); err != nil {
		t.Fatal(err)
	}
	snap := dep.Metrics()
	if got := counterValue(t, snap, "serve.optimize.total"); got != 1 {
		t.Fatalf("serve.optimize.total = %d, want 1", got)
	}
	if got := counterValue(t, snap, "predictor.selectplan.calls"); got != 1 {
		t.Fatalf("predictor.selectplan.calls = %d, want 1", got)
	}

	other, err := ps.Deploy(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.Telemetry() == nil || other.Telemetry() == reg {
		t.Fatal("default deployment should own a fresh private registry")
	}
}

// TestDeployFromModelMetricsWiring restores a saved model with options and
// checks the restored predictor's plan-selection telemetry reaches the
// supplied registry.
func TestDeployFromModelMetricsWiring(t *testing.T) {
	_, ps := tinyProject(t, 43)
	ps.RunDays(0, 6)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 5
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 4
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dep.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	restored, err := ps.DeployFromModel(&buf, 5, 1, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Telemetry() != reg {
		t.Fatal("WithMetrics registry not wired on restore")
	}
	if _, err := restored.OptimizeCtx(context.Background(), ps.Gen.Day(6)[0]); err != nil {
		t.Fatal(err)
	}
	snap := restored.Metrics()
	if got := counterValue(t, snap, "serve.optimize.total"); got != 1 {
		t.Fatalf("serve.optimize.total = %d, want 1", got)
	}
	if got := counterValue(t, snap, "predictor.selectplan.calls"); got != 1 {
		t.Fatalf("predictor.selectplan.calls = %d, want 1", got)
	}
}

// counterValue extracts one counter from a snapshot, failing if absent.
func counterValue(t *testing.T, s telemetry.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in snapshot", name)
	return 0
}

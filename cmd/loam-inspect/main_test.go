package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loam"
)

func TestInspectAllSections(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-tables", "10"}, &out, &errw); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"== catalog", "== statistics view vs ground truth",
		"== workload templates", "== query", "stage decomposition",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestInspectSingleSection(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-tables", "8", "-section", "stats"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "ground truth") {
		t.Fatal("stats section missing")
	}
	if strings.Contains(s, "== catalog") {
		t.Fatal("unrequested section present")
	}
}

func TestInspectBadTemplate(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-section", "query", "-template", "99"}, &out, &errw); err == nil {
		t.Fatal("out-of-range template accepted")
	}
}

// TestInspectMetricsSubcommand runs the opt-in metrics demo via the
// positional subcommand and checks both the deterministic snapshot and the
// reporting-only wall timings appear.
func TestInspectMetricsSubcommand(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-tables", "8", "metrics"}, &out, &errw); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"== metrics (deterministic snapshot) ==",
		"counter serve.optimize.total 5",
		"counter train.runs 1",
		"== wall timings",
		"serve.optimize.latency",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "== catalog") {
		t.Fatal("metrics demo should not drag other sections along")
	}

	// The documented form: flags after the subcommand are parsed (seed 9 is a
	// different world from the default 7), not rejected as unknown arguments.
	var nine bytes.Buffer
	if err := run([]string{"metrics", "-tables", "8", "-seed", "9"}, &nine, &errw); err != nil {
		t.Fatalf("metrics -seed 9: %v", err)
	}
	snapshot := func(o string) string { return strings.Split(o, "== wall timings")[0] }
	if snapshot(nine.String()) == snapshot(s) || !strings.Contains(nine.String(), "counter serve.optimize.total 5") {
		t.Fatalf("metrics -seed 9 ignored the seed or lost the snapshot:\n%s", nine.String())
	}
	if err := run([]string{"metrics", "stray"}, &out, &errw); err == nil {
		t.Fatal("stray argument after the subcommand accepted")
	}
}

// TestInspectAllOmitsMetrics pins the opt-in contract: -section all must not
// run the (training) metrics demo.
func TestInspectAllOmitsMetrics(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-tables", "10"}, &out, &errw); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(out.String(), "== metrics") {
		t.Fatal("metrics demo ran under -section all")
	}
}

// TestInspectRejectsUnknownSubcommand: an unknown subcommand is an error;
// -h prints the usage on the error writer, nothing on stdout, and is not.
func TestInspectRejectsUnknownSubcommand(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"bogus"}, &out, &errw); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	// An unknown -section is an error naming the valid ones, before anything
	// runs — not a silent no-op.
	err := run([]string{"-section", "nosuch"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), sections) || out.Len() != 0 {
		t.Fatalf("-section nosuch: err %v, stdout %q", err, out.String())
	}
	out.Reset()
	errw.Reset()
	if err := run([]string{"-h"}, &out, &errw); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(errw.String(), "Usage of loam-inspect") || out.Len() != 0 {
		t.Fatalf("-h: usage not on the error writer alone:\nstdout: %s\nstderr: %s", out.String(), errw.String())
	}
}

// fsckStore deploys a tiny durable deployment and returns its store dir.
func fsckStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	sim := loam.NewSimulation(7, loam.DefaultSimulationConfig())
	cfg := loam.DefaultProjectConfig("fsck")
	cfg.Archetype.NumTables = 8
	cfg.Workload.NumTemplates = 4
	cfg.Workload.QueriesPerDayMean = 4
	ps := sim.AddProject(cfg)
	ps.RunDays(0, 5)
	dcfg := loam.DefaultDeployConfig()
	dcfg.TrainDays = 4
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 4
	dep, err := ps.Deploy(dcfg, loam.WithDurableStore(dir))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	for i, q := range ps.Gen.Day(5) {
		if i == 3 {
			break
		}
		c, err := dep.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		dep.ExecuteChoice(c)
	}
	return dir
}

// TestInspectFsckCleanStore pins the fsck subcommand's happy path: a freshly
// checkpointed store reports ok, and two invocations print byte-identical
// reports.
func TestInspectFsckCleanStore(t *testing.T) {
	dir := fsckStore(t)
	check := func() string {
		var out, errw bytes.Buffer
		if err := run([]string{"fsck", dir}, &out, &errw); err != nil {
			t.Fatalf("fsck: %v\n%s", err, out.String())
		}
		return out.String()
	}
	first := check()
	for _, want := range []string{
		"fsck ok",
		"manifest seq=1 version=1 parent=0 next=2 event=deploy",
		"snapshot ",
		"journal segments=1",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("report missing %q:\n%s", want, first)
		}
	}
	if again := check(); again != first {
		t.Fatalf("fsck reports differ across runs:\n--- 1 ---\n%s\n--- 2 ---\n%s", first, again)
	}
}

// TestInspectFsckCorruptStore pins the exit contract: a bit-flipped snapshot
// renders a CORRUPT report and makes run return an error (exit 1 in main).
func TestInspectFsckCorruptStore(t *testing.T) {
	dir := fsckStore(t)
	ents, err := os.ReadDir(filepath.Join(dir, "models"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("models dir: %v", err)
	}
	path := filepath.Join(dir, "models", ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if err := run([]string{"fsck", dir}, &out, &errw); err == nil {
		t.Fatalf("corrupt store passed fsck:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "fsck CORRUPT") || !strings.Contains(s, "checksum") {
		t.Fatalf("corrupt report incomplete:\n%s", s)
	}
}

func TestInspectFsckMissingDir(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"fsck", filepath.Join(t.TempDir(), "nope")}, &out, &errw); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestInspectFsckUsage(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"fsck"}, &out, &errw); err == nil {
		t.Fatal("fsck without a dir accepted")
	}
}

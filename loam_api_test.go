package loam

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"loam/internal/encoding"
	"loam/internal/predictor"
)

func tinyProject(t *testing.T, seed uint64) (*Simulation, *ProjectSim) {
	t.Helper()
	sim := NewSimulation(seed, DefaultSimulationConfig())
	cfg := DefaultProjectConfig("api")
	cfg.Archetype.NumTables = 10
	cfg.Workload.NumTemplates = 5
	cfg.Workload.QueriesPerDayMean = 4
	return sim, sim.AddProject(cfg)
}

func TestDeployFailsWithoutHistory(t *testing.T) {
	_, ps := tinyProject(t, 1)
	_, err := ps.Deploy(DefaultDeployConfig())
	if !errors.Is(err, predictor.ErrNoTrainingData) {
		t.Fatalf("want ErrNoTrainingData, got %v", err)
	}
	// The project prefix is applied once, by Deploy itself.
	if msg := err.Error(); !strings.HasPrefix(msg, "deploy api:") || strings.Count(msg, "deploy api:") != 1 {
		t.Fatalf("want one \"deploy api:\" prefix, got %q", msg)
	}
}

func TestProjectLookup(t *testing.T) {
	sim, ps := tinyProject(t, 2)
	if sim.Project("api") != ps {
		t.Fatal("lookup failed")
	}
	if sim.Project("nope") != nil {
		t.Fatal("missing project should be nil")
	}
}

func TestViewCaching(t *testing.T) {
	_, ps := tinyProject(t, 3)
	v1 := ps.View(4)
	v2 := ps.View(4)
	if v1 != v2 {
		t.Fatal("views not cached per day")
	}
	if ps.View(5) == v1 {
		t.Fatal("different days share a view")
	}
}

func TestRunDaysBuildsHistory(t *testing.T) {
	_, ps := tinyProject(t, 4)
	ps.RunDays(0, 3)
	if ps.Repo.Len() == 0 {
		t.Fatal("no history")
	}
	days := ps.Repo.Days()
	if len(days) == 0 || days[0] != 0 {
		t.Fatalf("days %v", days)
	}
	for _, e := range ps.Repo.All() {
		if e.Record.CPUCost <= 0 {
			t.Fatal("non-positive logged cost")
		}
		if e.Record.TemplateID == "" {
			t.Fatal("template id not propagated")
		}
		if !e.Record.Plan.IsDefault() {
			t.Fatal("history should contain default plans only")
		}
	}
}

func TestOptimizeProducesValidChoice(t *testing.T) {
	_, ps := tinyProject(t, 5)
	ps.RunDays(0, 5)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 4
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	q := ps.Gen.Day(5)[0]
	choice, err := dep.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Chosen == nil || len(choice.Candidates) == 0 {
		t.Fatal("empty choice")
	}
	if len(choice.Estimates) != len(choice.Candidates) {
		t.Fatal("estimate count mismatch")
	}
	if choice.Candidates[choice.ChosenIdx] != choice.Chosen {
		t.Fatal("chosen index inconsistent")
	}
	// The chosen estimate is the minimum.
	for _, est := range choice.Estimates {
		if est < choice.Estimates[choice.ChosenIdx] {
			t.Fatal("chosen plan is not the cheapest estimate")
		}
	}
	before := ps.Repo.Len()
	rec := dep.ExecuteChoice(choice)
	if rec.CPUCost <= 0 {
		t.Fatal("executed cost non-positive")
	}
	if ps.Repo.Len() != before+1 {
		t.Fatal("execution not logged")
	}
}

func TestDeterministicSimulations(t *testing.T) {
	run := func() float64 {
		_, ps := tinyProject(t, 77)
		ps.RunDays(0, 3)
		total := 0.0
		for _, e := range ps.Repo.All() {
			total += e.Record.CPUCost
		}
		return total
	}
	if run() != run() {
		t.Fatal("same-seed simulations diverged")
	}
}

func TestDeploymentStrategySwitch(t *testing.T) {
	_, ps := tinyProject(t, 6)
	ps.RunDays(0, 5)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 4
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 4
	dep, err := ps.Deploy(dcfg, WithStrategy(predictor.StrategyClusterCurrent))
	if err != nil {
		t.Fatal(err)
	}
	if dep.Strategy != predictor.StrategyClusterCurrent {
		t.Fatalf("WithStrategy not applied, got %v", dep.Strategy)
	}
	q := ps.Gen.Day(5)[0]
	c1, err1 := dep.OptimizeCtx(context.Background(), q)
	dep.SetStrategy(predictor.StrategyMeanEnv)
	if dep.Strategy != predictor.StrategyMeanEnv {
		t.Fatalf("SetStrategy not applied, got %v", dep.Strategy)
	}
	c2, err2 := dep.OptimizeCtx(context.Background(), q)
	if err1 != nil || err2 != nil {
		t.Fatalf("optimize errors: %v / %v", err1, err2)
	}
	// Both must be valid selections (they may or may not coincide).
	if c1.Chosen == nil || c2.Chosen == nil {
		t.Fatal("strategy switch broke optimization")
	}
}

func TestExecOptionsRespectQuerySigma(t *testing.T) {
	_, ps := tinyProject(t, 7)
	q := ps.Gen.Templates[0].Instantiate(ps.Rng("t"), 0)
	opt := ps.ExecOptions(q)
	if opt.NoiseSigma != q.NoiseSigma {
		t.Fatalf("options sigma %g, query sigma %g", opt.NoiseSigma, q.NoiseSigma)
	}
}

func TestSaveAndRestoreDeployment(t *testing.T) {
	_, ps := tinyProject(t, 8)
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
	restored, err := ps.DeployFromModel(&buf, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := ps.Gen.Day(6)[0]
	c1, err1 := dep.OptimizeCtx(context.Background(), q)
	c2, err2 := restored.OptimizeCtx(context.Background(), q)
	if err1 != nil || err2 != nil {
		t.Fatalf("optimize errors: %v / %v", err1, err2)
	}
	if c1.ChosenIdx != c2.ChosenIdx {
		t.Fatalf("restored deployment picks differently: %d vs %d", c1.ChosenIdx, c2.ChosenIdx)
	}
	for i := range c1.Estimates {
		if c1.Estimates[i] != c2.Estimates[i] {
			t.Fatalf("estimate %d differs after restore", i)
		}
	}
}

// TestSaveAndRestoreNonDefaultEncoding deploys under a non-default encoder
// configuration and verifies the restored deployment rebuilds its encoder
// from the serialized configuration — not encoding.DefaultConfig() — so every
// estimate survives the round trip bit-for-bit.
func TestSaveAndRestoreNonDefaultEncoding(t *testing.T) {
	_, ps := tinyProject(t, 10)
	ps.RunDays(0, 6)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 5
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 4
	dcfg.Encoder = encoding.Config{Segments: 3, SegmentDim: 16, MaxPartitions: 2048, MaxColumns: 32}
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dep.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ps.DeployFromModel(&buf, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Predictor().EncoderConfig(); got != dcfg.Encoder {
		t.Fatalf("restored encoder config %+v, want %+v", got, dcfg.Encoder)
	}
	if got := restored.Encoder.Config(); got != dcfg.Encoder {
		t.Fatalf("restored deployment encoder rebuilt from %+v, want %+v", got, dcfg.Encoder)
	}
	q := ps.Gen.Day(6)[0]
	c1, err1 := dep.OptimizeCtx(context.Background(), q)
	c2, err2 := restored.OptimizeCtx(context.Background(), q)
	if err1 != nil || err2 != nil {
		t.Fatalf("optimize errors: %v / %v", err1, err2)
	}
	if c1.ChosenIdx != c2.ChosenIdx {
		t.Fatalf("restored deployment picks differently: %d vs %d", c1.ChosenIdx, c2.ChosenIdx)
	}
	for i := range c1.Estimates {
		if c1.Estimates[i] != c2.Estimates[i] {
			t.Fatalf("estimate %d differs after restore: %g vs %g", i, c1.Estimates[i], c2.Estimates[i])
		}
	}
}

func TestLatencyNoisierThanCost(t *testing.T) {
	_, ps := tinyProject(t, 9)
	tpl := ps.Gen.Templates[0]
	tpl.ParamChurn = 0
	q := tpl.Instantiate(ps.Rng("lat"), 0)
	p := ps.Explorer(0).DefaultPlan(q)
	opt := ps.ExecOptions(q)
	opt.NoiseSigma = 0.05
	var costs, lats []float64
	for i := 0; i < 40; i++ {
		rec := ps.Executor.Execute(p, 0, opt)
		costs = append(costs, rec.CPUCost)
		lats = append(lats, rec.LatencySec)
	}
	rsd := func(v []float64) float64 {
		mean := 0.0
		for _, x := range v {
			mean += x
		}
		mean /= float64(len(v))
		s := 0.0
		for _, x := range v {
			s += (x - mean) * (x - mean)
		}
		return math.Sqrt(s/float64(len(v))) / mean
	}
	if rsd(lats) <= rsd(costs) {
		t.Fatalf("latency RSD %.3f should exceed cost RSD %.3f (§3)", rsd(lats), rsd(costs))
	}
}

// TestDeployFromModelCorruptSnapshot pins the root-level corruption
// sentinel: a snapshot whose payload disagrees with its own config must
// surface as loam.ErrCorruptSnapshot through DeployFromModel's wrap, so
// callers can tell corruption from I/O failures without importing
// internal/predictor.
func TestDeployFromModelCorruptSnapshot(t *testing.T) {
	_, ps := tinyProject(t, 11)
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
	// Truncate the tensor list: same JSON shape, inconsistent payload.
	tampered := bytes.Replace(buf.Bytes(), []byte(`"params":[[`), []byte(`"params":[[9],[`), 1)
	_, err = ps.DeployFromModel(bytes.NewReader(tampered), 5, 1)
	if err == nil {
		t.Fatal("tampered snapshot should fail to restore")
	}
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("want ErrCorruptSnapshot in the chain, got %v", err)
	}
	if !errors.Is(err, predictor.ErrCorruptSnapshot) {
		t.Fatalf("root re-export must alias the predictor sentinel, got %v", err)
	}
}

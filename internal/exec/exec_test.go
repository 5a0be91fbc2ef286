package exec

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"loam/internal/cardinality"
	"loam/internal/cluster"
	"loam/internal/expr"
	"loam/internal/plan"
	"loam/internal/simrand"
	"loam/internal/telemetry"
	"loam/internal/warehouse"
)

func testPlanWithExchanges() *plan.Plan {
	scanA := &plan.Node{Op: plan.OpTableScan, Table: "x.t000", PartitionsRead: 1, ColumnsAccessed: 2}
	scanB := &plan.Node{Op: plan.OpTableScan, Table: "x.t001", PartitionsRead: 1, ColumnsAccessed: 1}
	join := &plan.Node{
		Op: plan.OpHashJoin, JoinForm: plan.JoinInner,
		LeftCols:  []expr.ColumnRef{{Table: "x.t000", Column: "x.t000.c00"}},
		RightCols: []expr.ColumnRef{{Table: "x.t001", Column: "x.t001.c00"}},
		Children: []*plan.Node{
			{Op: plan.OpExchange, Children: []*plan.Node{scanA}},
			{Op: plan.OpExchange, Children: []*plan.Node{scanB}},
		},
	}
	return &plan.Plan{Root: &plan.Node{Op: plan.OpSelect, Children: []*plan.Node{join}}}
}

func TestDecomposeStages(t *testing.T) {
	p := testPlanWithExchanges()
	d := Decompose(p.Root)
	// Two exchanges → three stages.
	if len(d.Stages) != 3 {
		t.Fatalf("stages %d", len(d.Stages))
	}
	// Every node belongs to exactly one stage.
	count := 0
	p.Root.Walk(func(n *plan.Node) {
		count++
		if _, ok := d.StageOf[n]; !ok {
			t.Fatalf("node %v not in any stage", n.Op)
		}
	})
	if count != len(d.StageOf) {
		t.Fatalf("stage map covers %d of %d nodes", len(d.StageOf), count)
	}
	// Topological order: children before parents.
	pos := map[*Stage]int{}
	for i, s := range d.Stages {
		pos[s] = i
	}
	for _, s := range d.Stages {
		for _, c := range s.Children {
			if pos[c] >= pos[s] {
				t.Fatal("child stage not before parent")
			}
		}
	}
	// Root stage is last and holds the plan root.
	if d.Root != d.Stages[len(d.Stages)-1] {
		t.Fatal("root stage misplaced")
	}
	if d.Root.Root != p.Root {
		t.Fatal("root stage root mismatch")
	}
}

func TestDecomposeSingleStage(t *testing.T) {
	p := &plan.Plan{Root: &plan.Node{Op: plan.OpTableScan, Table: "t", PartitionsRead: 1}}
	d := Decompose(p.Root)
	if len(d.Stages) != 1 || len(d.Stages[0].Nodes) != 1 {
		t.Fatalf("stages %d", len(d.Stages))
	}
}

func TestSizeInstances(t *testing.T) {
	if got := sizeInstances(100, 0); got != 1 {
		t.Fatalf("small input instances %d", got)
	}
	if got := sizeInstances(1e9, 0); got != 64 {
		t.Fatalf("huge input should cap at 64, got %d", got)
	}
	if got := sizeInstances(1e9, 8); got != 8 {
		t.Fatalf("hint should win, got %d", got)
	}
	if got := sizeInstances(1e9, 128); got != 64 {
		t.Fatalf("hint should still cap, got %d", got)
	}
}

func TestEnvFactorMonotonicity(t *testing.T) {
	// Typical allocated-machine conditions (Fuxi prefers idle machines).
	base := cluster.Metrics{CPUIdle: 0.8, IOWait: 0.05, Load5: 8, MemUsage: 0.5}
	f0 := EnvFactor(base)
	busy := base
	busy.CPUIdle = 0.1
	if EnvFactor(busy) <= f0 {
		t.Fatal("lower idle should cost more")
	}
	io := base
	io.IOWait = 0.3
	if EnvFactor(io) <= f0 {
		t.Fatal("higher IO wait should cost more")
	}
	loaded := base
	loaded.Load5 = 40
	if EnvFactor(loaded) <= f0 {
		t.Fatal("higher load should cost more")
	}
	// Near-average conditions should be near factor 1.
	if f0 < 0.7 || f0 > 1.3 {
		t.Fatalf("average-case factor %g not near 1", f0)
	}
}

func testEnv(seed uint64) (*Executor, *warehouse.Project) {
	a := warehouse.DefaultArchetype()
	a.Name = "x"
	a.TempTableFrac = 0
	a.NumTables = 4
	proj := warehouse.Generate(simrand.New(seed), a)
	cfg := cluster.DefaultConfig()
	cfg.Machines = 32
	cl := cluster.New(simrand.New(seed+1), cfg)
	return NewExecutor(simrand.New(seed+2), cl, proj), proj
}

func TestWorkPositiveAndStable(t *testing.T) {
	ex, _ := testEnv(30)
	p := testPlanWithExchanges()
	w1, per, d, cards := ex.Work(p, 1)
	if w1 <= 0 {
		t.Fatalf("work %g", w1)
	}
	if len(per) != len(d.Stages) {
		t.Fatalf("per-stage %d vs stages %d", len(per), len(d.Stages))
	}
	sum := 0.0
	for _, v := range per {
		sum += v
	}
	if math.Abs(sum-w1) > 1e-9 {
		t.Fatalf("per-stage sum %g != total %g", sum, w1)
	}
	if cards.Rows(p.Root) <= 0 {
		t.Fatal("root cardinality missing")
	}
	// Work is deterministic (no env, no noise).
	w2, _, _, _ := ex.Work(p, 1)
	if w1 != w2 {
		t.Fatal("work not deterministic")
	}
}

func TestExecuteRecordConsistency(t *testing.T) {
	ex, _ := testEnv(31)
	p := testPlanWithExchanges()
	rec := ex.Execute(p, 1, DefaultOptions())
	if rec.CPUCost <= 0 || rec.LatencySec <= 0 {
		t.Fatalf("cost %g latency %g", rec.CPUCost, rec.LatencySec)
	}
	sum := 0.0
	for _, c := range rec.StageCosts {
		if c <= 0 {
			t.Fatalf("stage cost %g", c)
		}
		sum += c
	}
	if math.Abs(sum-rec.CPUCost) > 1e-6*rec.CPUCost {
		t.Fatalf("stage costs sum %g != total %g", sum, rec.CPUCost)
	}
	// Every plan node reports an environment.
	p.Root.Walk(func(n *plan.Node) {
		if _, ok := rec.NodeEnv(n); !ok {
			t.Fatalf("node %v has no environment", n.Op)
		}
	})
	// Nodes in the same stage share the environment.
	d := Decompose(p.Root)
	for n, s := range d.StageOf {
		e1, _ := rec.NodeEnv(n)
		e2, _ := rec.NodeEnv(s.Root)
		if e1 != e2 {
			t.Fatal("stage members report different environments")
		}
	}
}

func TestNodeEnvUnknownNode(t *testing.T) {
	ex, _ := testEnv(32)
	rec := ex.Execute(testPlanWithExchanges(), 1, DefaultOptions())
	if _, ok := rec.NodeEnv(&plan.Node{Op: plan.OpSort}); ok {
		t.Fatal("foreign node should have no environment")
	}
}

// stageFactorCases returns the plan's hash-join stage (the root stage) and one
// of its scan stages.
func stageFactorCases(t *testing.T) (hashHeavy, scan *Stage) {
	t.Helper()
	d := Decompose(testPlanWithExchanges().Root)
	hashHeavy, scan = d.Root, d.Stages[0]
	if !stageHashHeavy(hashHeavy) || stageHashHeavy(scan) {
		t.Fatal("test plan's stages changed shape")
	}
	return hashHeavy, scan
}

// TestStageFactorGrowsWithLoad: the per-stage factor Execute multiplies work
// by is deterministic, and a busier environment costs more on every stage.
func TestStageFactorGrowsWithLoad(t *testing.T) {
	env := cluster.Metrics{CPUIdle: 0.5, IOWait: 0.05, Load5: 10, MemUsage: 0.5}
	busy := env
	busy.CPUIdle = 0.05
	hash, scan := stageFactorCases(t)
	for _, s := range []*Stage{hash, scan} {
		f := stageFactor(s, env)
		if f <= 0 || f != stageFactor(s, env) {
			t.Fatalf("stage %d: factor %g unstable or non-positive", s.ID, f)
		}
		if stageFactor(s, busy) <= f {
			t.Fatalf("stage %d: busy env should cost more", s.ID)
		}
	}
}

// TestSpillPenaltyAppliesUnderMemoryPressure: beyond the plain environment
// factor's increase, memory pressure costs a hash-heavy stage the spill
// penalty, and a scan stage nothing more.
func TestSpillPenaltyAppliesUnderMemoryPressure(t *testing.T) {
	low := cluster.Metrics{CPUIdle: 0.5, IOWait: 0.05, Load5: 10, MemUsage: 0.5}
	high := low
	high.MemUsage = 0.95
	plain := EnvFactor(high) / EnvFactor(low)
	hash, scan := stageFactorCases(t)
	if ratio := stageFactor(hash, high) / stageFactor(hash, low); ratio <= plain*1.05 {
		t.Fatalf("no spill penalty visible: ratio %g vs plain %g", ratio, plain)
	}
	if ratio := stageFactor(scan, high) / stageFactor(scan, low); math.Abs(ratio-plain) > 1e-12 {
		t.Fatalf("scan stage paid a spill penalty: ratio %g vs plain %g", ratio, plain)
	}
}

// TestFlightReturnsEachRep: Flight returns one cost per rep, the costs of
// executing the plan that many times.
func TestFlightReturnsEachRep(t *testing.T) {
	ex, _ := testEnv(35)
	p := testPlanWithExchanges()
	costs := ex.Fork("flight/test").Flight(p, 1, 5, DefaultOptions())
	twin := ex.Fork("flight/test")
	if len(costs) != 5 {
		t.Fatalf("%d costs for 5 reps", len(costs))
	}
	for r, c := range costs {
		if want := twin.Execute(p, 1, DefaultOptions()).CPUCost; c <= 0 || math.Float64bits(c) != math.Float64bits(want) {
			t.Fatalf("rep %d: cost %g, execution %g", r, c, want)
		}
	}
}

// TestForkLeavesExecutorUntouched: flights on a fork leave the executor, its
// cluster and its telemetry bit-identical to an unforked twin's: the next
// Execute returns the same record.
func TestForkLeavesExecutorUntouched(t *testing.T) {
	ex, _ := testEnv(37)
	twin, _ := testEnv(37)
	regs := [2]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	p := testPlanWithExchanges()
	for i, x := range []*Executor{ex, twin} {
		x.Instrument(regs[i])
		x.Execute(p, 1, DefaultOptions())
	}
	ex.Fork("flight/test").Flight(p, 1, 5, DefaultOptions())
	got, want := ex.Execute(p, 1, DefaultOptions()), twin.Execute(p, 1, DefaultOptions())
	if math.Float64bits(got.CPUCost) != math.Float64bits(want.CPUCost) ||
		math.Float64bits(got.LatencySec) != math.Float64bits(want.LatencySec) || got.QueryID != want.QueryID {
		t.Fatalf("forked executor's next record %s %g %g, twin's %s %g %g",
			got.QueryID, got.CPUCost, got.LatencySec, want.QueryID, want.CPUCost, want.LatencySec)
	}
	if ex.Cluster.Now() != twin.Cluster.Now() {
		t.Fatalf("cluster clock %g, twin's %g", ex.Cluster.Now(), twin.Cluster.Now())
	}
	if g, w := regs[0].Snapshot(), regs[1].Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("fork reported telemetry:\n%v\nvs twin\n%v", g, w)
	}
}

// TestForksOfOnePurposeExecuteIdentically: two forks of one purpose taken
// from one state flight identically; another purpose draws other streams.
func TestForksOfOnePurposeExecuteIdentically(t *testing.T) {
	ex, _ := testEnv(38)
	p := testPlanWithExchanges()
	ex.Execute(p, 1, DefaultOptions())
	flight := func(purpose string) []uint64 {
		var bits []uint64
		for _, c := range ex.Fork(purpose).Flight(p, 1, 8, DefaultOptions()) {
			bits = append(bits, math.Float64bits(c))
		}
		return bits
	}
	want := flight("flight/a")
	if got := flight("flight/a"); !slices.Equal(got, want) {
		t.Fatalf("two forks of one purpose: %v vs %v", got, want)
	}
	if slices.Equal(flight("flight/b"), want) {
		t.Fatal("forks of different purposes flighted identically")
	}
}

func TestExecutionVariance(t *testing.T) {
	ex, _ := testEnv(36)
	p := testPlanWithExchanges()
	opt := DefaultOptions()
	opt.NoiseSigma = 0.15
	var costs []float64
	for i := 0; i < 30; i++ {
		costs = append(costs, ex.Execute(p, 1, opt).CPUCost)
	}
	mean, varSum := 0.0, 0.0
	for _, c := range costs {
		mean += c
	}
	mean /= float64(len(costs))
	for _, c := range costs {
		varSum += (c - mean) * (c - mean)
	}
	rsd := math.Sqrt(varSum/float64(len(costs))) / mean
	if rsd < 0.02 {
		t.Fatalf("recurring executions suspiciously stable: RSD %g", rsd)
	}
	if rsd > 0.8 {
		t.Fatalf("recurring executions too wild: RSD %g", rsd)
	}
}

func TestNodeWorkCoversAllOps(t *testing.T) {
	src := cardinality.Source{
		Rows:       func(string) float64 { return 1000 },
		Partitions: func(string) int { return 4 },
		Dist:       fixedDist{},
		NDV:        func(expr.ColumnRef) float64 { return 100 },
	}
	est := &cardinality.Estimator{Src: src}
	for op := plan.OpType(1); int(op) <= plan.NumOpTypes; op++ {
		n := &plan.Node{Op: op, Table: "t", PartitionsRead: 2, ColumnsAccessed: 1}
		if op.IsFilterLike() {
			n.Pred = expr.Compare(expr.FuncEQ, expr.ColumnRef{Table: "t", Column: "c"}, 1)
		}
		if int(op) != int(plan.OpTableScan) {
			n.Children = []*plan.Node{{Op: plan.OpTableScan, Table: "t", PartitionsRead: 2, ColumnsAccessed: 1}}
		}
		cards := est.Estimate(n)
		w := NodeWork(n, cards, 8)
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("op %v work = %g", op, w)
		}
	}
}

type fixedDist struct{}

func (fixedDist) CompareSelectivity(expr.ColumnRef, expr.Func, []float64) float64 { return 0.5 }

// TestForkConcurrentWithExecute: forking reads the executor's cluster under
// its read lock and the noise stream's seed only, so flights may fork while
// the serving goroutine executes (run under -race).
func TestForkConcurrentWithExecute(t *testing.T) {
	ex, _ := testEnv(39)
	p := testPlanWithExchanges()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				ex.Fork("flight/test").Flight(p, 1, 2, DefaultOptions())
			}
		}()
	}
	for i := 0; i < 20; i++ {
		ex.Execute(p, 1, DefaultOptions())
	}
	wg.Wait()
}

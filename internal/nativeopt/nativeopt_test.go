package nativeopt

import (
	"testing"

	"loam/internal/cardinality"
	"loam/internal/expr"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/stats"
	"loam/internal/warehouse"
)

// fixture builds a 3-table query over a generated project with a chosen
// statistics policy.
type fixture struct {
	project *warehouse.Project
	view    *stats.View
	q       *query.Query
}

func newFixture(t *testing.T, pol stats.Policy) *fixture {
	t.Helper()
	a := warehouse.DefaultArchetype()
	a.Name = "opt"
	a.TempTableFrac = 0
	a.NumTables = 8
	a.RowsLog10Mean = 6.3
	a.RowsLog10Std = 0.3
	p := warehouse.Generate(simrand.New(77), a)
	v := stats.Snapshot(simrand.New(78), p, 5, pol)

	t0, t1, t2 := p.Tables[0], p.Tables[1], p.Tables[2]
	key := func(tb *warehouse.Table) expr.ColumnRef {
		best := tb.Columns[0]
		for _, c := range tb.Columns {
			if c.NDV > best.NDV {
				best = c
			}
		}
		return best.Ref(tb)
	}
	q := &query.Query{
		ID: "q1", Project: "opt", Day: 5,
		Tables: []string{t0.ID, t1.ID, t2.ID},
		Inputs: map[string]*query.TableInput{
			t0.ID: {PartitionFrac: 0.5, ColumnsAccessed: 3,
				Pred: expr.Compare(expr.FuncLT, t0.Columns[0].Ref(t0), 10)},
			t1.ID: {PartitionFrac: 1, ColumnsAccessed: 2,
				HardPred: expr.Compare(expr.FuncLike, t1.Columns[0].Ref(t1), 3)},
			t2.ID: {PartitionFrac: 1, ColumnsAccessed: 1},
		},
		Joins: []query.JoinEdge{
			{LeftTable: t0.ID, RightTable: t1.ID, LeftCol: key(t0), RightCol: key(t1), Form: plan.JoinInner},
			{LeftTable: t1.ID, RightTable: t2.ID, LeftCol: key(t1), RightCol: key(t2), Form: plan.JoinInner},
		},
		GroupBy: []expr.ColumnRef{t0.Columns[1].Ref(t0)},
		Aggs:    []query.AggSpec{{Fn: plan.AggSum, Col: t0.Columns[0].Ref(t0)}},
	}
	return &fixture{project: p, view: v, q: q}
}

func freshPolicy() stats.Policy {
	return stats.Policy{ColumnStatsProb: 1, FreshProb: 1, MaxStalenessDays: 0, NDVNoise: 0.01}
}

func missingPolicy() stats.Policy {
	return stats.Policy{ColumnStatsProb: 0, FreshProb: 1}
}

// planScaled plans q under f at cardScale through a fresh session: what
// Optimize does, with cardinalities scaled.
func planScaled(v *stats.View, q *query.Query, f Flags, cardScale float64) *plan.Plan {
	p, _ := NewSession(v, q).Plan(f, cardScale)
	return p
}

func countOps(p *plan.Plan, op plan.OpType) int {
	n := 0
	p.Root.Walk(func(m *plan.Node) {
		if m.Op == op {
			n++
		}
	})
	return n
}

func TestOptimizeDeterminism(t *testing.T) {
	f := newFixture(t, freshPolicy())
	o := New(f.view)
	p1 := o.Optimize(f.q, Flags{})
	p2 := o.Optimize(f.q, Flags{})
	if p1.Root.Fingerprint() != p2.Root.Fingerprint() {
		t.Fatal("optimization not deterministic")
	}
}

func TestDefaultPlanStructure(t *testing.T) {
	f := newFixture(t, freshPolicy())
	p := New(f.view).Optimize(f.q, Flags{})
	if p.Root.Op != plan.OpSelect {
		t.Fatalf("root op %v", p.Root.Op)
	}
	if got := len(p.Root.Tables()); got != 3 {
		t.Fatalf("plan scans %d tables", got)
	}
	joins := 0
	p.Root.Walk(func(n *plan.Node) {
		if n.Op.IsJoin() {
			joins++
		}
	})
	if joins != 2 {
		t.Fatalf("plan has %d joins", joins)
	}
	if !p.IsDefault() {
		t.Fatal("flagless plan should be default")
	}
}

func TestMergeJoinFlag(t *testing.T) {
	f := newFixture(t, freshPolicy())
	o := New(f.view)
	def := o.Optimize(f.q, Flags{})
	mj := o.Optimize(f.q, Flags{MergeJoin: true})
	if countOps(mj, plan.OpMergeJoin) <= countOps(def, plan.OpMergeJoin) &&
		countOps(mj, plan.OpHashJoin) >= countOps(def, plan.OpHashJoin) {
		t.Fatal("merge-join flag had no effect on physical joins")
	}
	if len(mj.Knobs) != 1 || mj.Knobs[0] != "flag:mergeJoin" {
		t.Fatalf("knobs %v", mj.Knobs)
	}
}

func TestFilterPushdownFlagWithMissingStats(t *testing.T) {
	f := newFixture(t, missingPolicy())
	o := New(f.view)
	def := o.Optimize(f.q, Flags{})
	pushed := o.Optimize(f.q, Flags{FilterPushdown: true})

	// Default defers the hard predicate above a join; the flag moves it to
	// the scan side. Detect via the filter's position: in the pushed plan no
	// Filter node should sit directly above a join.
	deferredIn := func(p *plan.Plan) bool {
		found := false
		p.Root.Walk(func(n *plan.Node) {
			if n.Op == plan.OpFilter && len(n.Children) == 1 && n.Children[0].Op.IsJoin() {
				found = true
			}
		})
		return found
	}
	if !deferredIn(def) {
		t.Fatal("default plan should defer the hard predicate above a join")
	}
	if deferredIn(pushed) {
		t.Fatal("pushdown flag left a deferred filter above a join")
	}
}

func TestHardPredPushedWhenStatsPresent(t *testing.T) {
	f := newFixture(t, freshPolicy())
	p := New(f.view).Optimize(f.q, Flags{})
	p.Root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpFilter && len(n.Children) == 1 && n.Children[0].Op.IsJoin() {
			t.Fatal("with column stats the hard predicate should be pushed to the scan")
		}
	})
}

func TestDopHighFlag(t *testing.T) {
	f := newFixture(t, freshPolicy())
	o := New(f.view)
	p := o.Optimize(f.q, Flags{DopHigh: true})
	found := false
	p.Root.Walk(func(n *plan.Node) {
		if n.Op.IsExchange() && n.Parallelism == highDOP {
			found = true
		}
	})
	if !found {
		t.Fatal("dop flag set no exchange parallelism")
	}
}

func TestShuffleCombineFlag(t *testing.T) {
	f := newFixture(t, freshPolicy())
	o := New(f.view)
	p := o.Optimize(f.q, Flags{ShuffleCombine: true})
	if countOps(p, plan.OpPartialAggregate) == 0 || countOps(p, plan.OpFinalAggregate) == 0 {
		t.Fatal("shuffle-combine flag did not split the aggregation")
	}
}

func TestSpoolEagerFlag(t *testing.T) {
	f := newFixture(t, freshPolicy())
	o := New(f.view)
	p := o.Optimize(f.q, Flags{SpoolEager: true})
	if countOps(p, plan.OpSpool) == 0 {
		t.Fatal("spool flag did not materialize eagerly")
	}
}

func TestJoinOrderSyntacticWithoutStats(t *testing.T) {
	f := newFixture(t, missingPolicy())
	order := NewSession(f.view, f.q).base
	for i := range f.q.Tables {
		if order[i] != i {
			t.Fatalf("order %v should be syntactic", order)
		}
	}
}

func TestCardScaleChangesOrder(t *testing.T) {
	f := newFixture(t, missingPolicy())
	def := New(f.view).Optimize(f.q, Flags{})
	scaled := planScaled(f.view, f.q, Flags{}, 5)
	if def.Root.Fingerprint() == scaled.Root.Fingerprint() {
		t.Fatal("card scaling produced an identical plan")
	}
	if len(scaled.Knobs) == 0 || scaled.Knobs[0] != "cardScale" {
		t.Fatalf("knobs %v", scaled.Knobs)
	}
}

func TestCardScaleOrderStaysConnected(t *testing.T) {
	f := newFixture(t, missingPolicy())
	for _, scale := range []float64{0.2, 0.5, 5} {
		p := planScaled(f.view, f.q, Flags{}, scale)
		// The chain query is fully connected: no nested-loop (cross) joins
		// may appear under any scaling.
		if got := countOps(p, plan.OpNestedLoopJoin); got != 0 {
			t.Fatalf("scale %g introduced %d cross joins", scale, got)
		}
	}
}

func TestRoughCostPositiveAndScalesWithWork(t *testing.T) {
	f := newFixture(t, freshPolicy())
	o := New(f.view)
	p := o.Optimize(f.q, Flags{})
	c := o.RoughCost(p)
	if c <= 0 {
		t.Fatalf("rough cost %g", c)
	}
	// Broadcast-heavy plan should not be free.
	if c2 := o.RoughCost(o.Optimize(f.q, Flags{BroadcastJoin: true})); c2 <= 0 {
		t.Fatalf("flagged rough cost %g", c2)
	}
}

func TestFlagsKnobsAndIsZero(t *testing.T) {
	if !(Flags{}).IsZero() {
		t.Fatal("zero flags should be zero")
	}
	f := Flags{MergeJoin: true, DopHigh: true}
	if f.IsZero() {
		t.Fatal("set flags should not be zero")
	}
	knobs := f.Knobs()
	if len(knobs) != 2 || knobs[0] != "flag:mergeJoin" || knobs[1] != "flag:dopHigh" {
		t.Fatalf("knobs %v", knobs)
	}
	// The labels are shared between plannings: an append must copy them.
	if cap(knobs) != len(knobs) || cap(f.knobs(true)) != 3 || f.knobs(true)[2] != "cardScale" {
		t.Fatalf("knobs %v (cap %d), scaled %v", knobs, cap(knobs), f.knobs(true))
	}
	if (Flags{}).Knobs() != nil {
		t.Fatal("the default setting records no knobs")
	}
}

func TestPartitionPruningInScan(t *testing.T) {
	f := newFixture(t, freshPolicy())
	p := New(f.view).Optimize(f.q, Flags{})
	scanTable := f.q.Tables[0]
	var scanNode *plan.Node
	p.Root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpTableScan && n.Table == scanTable {
			scanNode = n
		}
	})
	if scanNode == nil {
		t.Fatal("scan not found")
	}
	parts := f.view.PartitionEstimate(scanTable)
	if parts > 1 && scanNode.PartitionsRead >= parts {
		t.Fatalf("partition pruning not applied: read %d of %d", scanNode.PartitionsRead, parts)
	}
}

func TestBuildSideIsSmallerEstimate(t *testing.T) {
	f := newFixture(t, freshPolicy())
	p := New(f.view).Optimize(f.q, Flags{})
	est := cardinality.Estimator{Src: cardinality.ViewSource(f.view)}
	cards := est.Estimate(p.Root)
	p.Root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpHashJoin && n.JoinForm == plan.JoinInner && len(n.Children) == 2 {
			l := cards.Rows(n.Children[0])
			r := cards.Rows(n.Children[1])
			// Allow a tolerance: estimates are recomputed post-assembly.
			if r > 3*l {
				t.Fatalf("build side much larger than probe: %g vs %g", r, l)
			}
		}
	})
}

package cardinality

import (
	"math"
	"testing"
	"testing/quick"

	"loam/internal/expr"
	"loam/internal/plan"
	"loam/internal/simrand"
	"loam/internal/warehouse"
)

// fixedSource provides hand-set sizes for testing the propagation rules.
func fixedSource() Source {
	rows := map[string]float64{"a": 10_000, "b": 1_000, "c": 100}
	ndv := map[string]float64{"a.k": 1000, "b.k": 1000, "b.g": 50, "c.k": 100}
	return Source{
		Rows:       func(t string) float64 { return rows[t] },
		Partitions: func(t string) int { return 10 },
		Dist:       constSel(0.1),
		NDV: func(c expr.ColumnRef) float64 {
			if v, ok := ndv[c.Table+"."+c.Column]; ok {
				return v
			}
			return 10
		},
	}
}

type constSel float64

func (s constSel) CompareSelectivity(expr.ColumnRef, expr.Func, []float64) float64 {
	return float64(s)
}

func scan(table string, parts int) *plan.Node {
	return &plan.Node{Op: plan.OpTableScan, Table: table, PartitionsRead: parts, ColumnsAccessed: 1}
}

func TestScanPartitionPruning(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	full := est.Estimate(scan("a", 10))
	pruned := est.Estimate(scan("a", 2))
	if full.Rows(nil) != 0 {
		t.Fatal("nil node should report 0 rows")
	}
	n1, n2 := scan("a", 10), scan("a", 2)
	r1 := est.Estimate(n1).Rows(n1)
	r2 := est.Estimate(n2).Rows(n2)
	if r1 != 10_000 {
		t.Fatalf("full scan %g", r1)
	}
	if math.Abs(r2-2000) > 1e-9 {
		t.Fatalf("pruned scan %g", r2)
	}
	_ = full
	_ = pruned
}

func TestFilterAppliesSelectivity(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	f := &plan.Node{
		Op:       plan.OpFilter,
		Pred:     expr.Compare(expr.FuncEQ, expr.ColumnRef{Table: "a", Column: "k"}, 1),
		Children: []*plan.Node{scan("a", 10)},
	}
	r := est.Estimate(f).Rows(f)
	if math.Abs(r-1000) > 1e-9 {
		t.Fatalf("filtered rows %g, want 1000", r)
	}
}

func joinNode(op plan.OpType, form plan.JoinForm, l, r *plan.Node, lk, rk expr.ColumnRef) *plan.Node {
	return &plan.Node{
		Op: op, JoinForm: form,
		LeftCols: []expr.ColumnRef{lk}, RightCols: []expr.ColumnRef{rk},
		Children: []*plan.Node{l, r},
	}
}

func TestJoinContainment(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	j := joinNode(plan.OpHashJoin, plan.JoinInner, scan("a", 10), scan("b", 10),
		expr.ColumnRef{Table: "a", Column: "k"}, expr.ColumnRef{Table: "b", Column: "k"})
	r := est.Estimate(j).Rows(j)
	// 10000 * 1000 / max(1000,1000) = 10000.
	if math.Abs(r-10_000) > 1e-9 {
		t.Fatalf("join rows %g", r)
	}
}

func TestCrossJoinMultiplies(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	j := &plan.Node{Op: plan.OpNestedLoopJoin, JoinForm: plan.JoinInner,
		Children: []*plan.Node{scan("b", 10), scan("c", 10)}}
	r := est.Estimate(j).Rows(j)
	if math.Abs(r-100_000) > 1e-9 {
		t.Fatalf("cross join rows %g", r)
	}
}

func TestSemiAntiJoinBounds(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	lk := expr.ColumnRef{Table: "a", Column: "k"}
	rk := expr.ColumnRef{Table: "b", Column: "k"}
	semi := joinNode(plan.OpSemiJoin, plan.JoinSemi, scan("a", 10), scan("b", 10), lk, rk)
	rSemi := est.Estimate(semi).Rows(semi)
	if rSemi > 10_000+1e-9 {
		t.Fatalf("semi join exceeds left size: %g", rSemi)
	}
	anti := joinNode(plan.OpAntiJoin, plan.JoinAnti, scan("a", 10), scan("b", 10), lk, rk)
	rAnti := est.Estimate(anti).Rows(anti)
	if rAnti < 1 || rAnti > 10_000 {
		t.Fatalf("anti join out of bounds: %g", rAnti)
	}
	if math.Abs(rSemi+rAnti-10_000) > 1 {
		t.Fatalf("semi+anti should partition left: %g + %g", rSemi, rAnti)
	}
}

func TestOuterJoinsAtLeastPreserve(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	lk := expr.ColumnRef{Table: "a", Column: "k"}
	rk := expr.ColumnRef{Table: "c", Column: "k"}
	left := joinNode(plan.OpHashJoin, plan.JoinLeft, scan("a", 10), scan("c", 10), lk, rk)
	if r := est.Estimate(left).Rows(left); r < 10_000 {
		t.Fatalf("left join dropped rows: %g", r)
	}
	full := joinNode(plan.OpHashJoin, plan.JoinFull, scan("a", 10), scan("c", 10), lk, rk)
	if r := est.Estimate(full).Rows(full); r < 10_100 {
		t.Fatalf("full join below l+r: %g", r)
	}
}

func TestAggregationCapsAtGroups(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	agg := &plan.Node{
		Op:        plan.OpHashAggregate,
		GroupCols: []expr.ColumnRef{{Table: "b", Column: "g"}},
		Children:  []*plan.Node{scan("a", 10)},
	}
	if r := est.Estimate(agg).Rows(agg); math.Abs(r-50) > 1e-9 {
		t.Fatalf("grouped agg %g, want 50 (NDV cap)", r)
	}
	scalar := &plan.Node{Op: plan.OpHashAggregate, Children: []*plan.Node{scan("a", 10)}}
	if r := est.Estimate(scalar).Rows(scalar); r != 1 {
		t.Fatalf("scalar agg %g", r)
	}
}

func TestPassThroughOps(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	for _, op := range []plan.OpType{plan.OpExchange, plan.OpSort, plan.OpSpool, plan.OpProject, plan.OpSelect} {
		n := &plan.Node{Op: op, Children: []*plan.Node{scan("a", 10)}}
		if r := est.Estimate(n).Rows(n); math.Abs(r-10_000) > 1e-9 {
			t.Fatalf("%v not pass-through: %g", op, r)
		}
	}
}

func TestUnionSums(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	u := &plan.Node{Op: plan.OpUnion, Children: []*plan.Node{scan("b", 10), scan("c", 10)}}
	if r := est.Estimate(u).Rows(u); math.Abs(r-1100) > 1e-9 {
		t.Fatalf("union %g", r)
	}
}

func TestLimitCaps(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	l := &plan.Node{Op: plan.OpLimit, Children: []*plan.Node{scan("a", 10)}}
	if r := est.Estimate(l).Rows(l); r > 10_000 {
		t.Fatalf("limit did not cap: %g", r)
	}
}

func TestCardScaleAppliesOnlyToWideSubplans(t *testing.T) {
	src := fixedSource()
	lk := expr.ColumnRef{Table: "a", Column: "k"}
	bk := expr.ColumnRef{Table: "b", Column: "k"}
	ck := expr.ColumnRef{Table: "c", Column: "k"}
	build := func() *plan.Node {
		j1 := joinNode(plan.OpHashJoin, plan.JoinInner, scan("a", 10), scan("b", 10), lk, bk)
		return joinNode(plan.OpHashJoin, plan.JoinInner, j1, scan("c", 10), bk, ck)
	}
	plain := &Estimator{Src: src}
	scaled := &Estimator{Src: src, CardScale: 10}

	rootPlain := build()
	rootScaled := build()
	rp := plain.Estimate(rootPlain)
	rs := scaled.Estimate(rootScaled)

	// Two-table subplan unscaled.
	if rp.Rows(rootPlain.Children[0]) != rs.Rows(rootScaled.Children[0]) {
		t.Fatal("2-table subplan should not be scaled")
	}
	// Three-table root scaled by 10.
	if math.Abs(rs.Rows(rootScaled)/rp.Rows(rootPlain)-10) > 1e-9 {
		t.Fatalf("3-table root scaling wrong: %g vs %g", rs.Rows(rootScaled), rp.Rows(rootPlain))
	}
	if rp.BaseTables(rootPlain) != 3 {
		t.Fatalf("base tables %d", rp.BaseTables(rootPlain))
	}
}

func TestPredicateMonotonicityProperty(t *testing.T) {
	// Conjoining an extra predicate never increases estimated rows.
	a := warehouse.DefaultArchetype()
	a.Name = "m"
	p := warehouse.Generate(simrand.New(17), a)
	src := TruthSource(p, 1)
	est := &Estimator{Src: src}
	tb := p.Tables[0]
	col := tb.Columns[0].Ref(tb)

	if err := quick.Check(func(r1Raw, r2Raw uint16) bool {
		r1 := float64(r1Raw) // value ranks, clamped internally
		r2 := float64(r2Raw)
		one := &plan.Node{Op: plan.OpFilter,
			Pred:     expr.Compare(expr.FuncLT, col, r1),
			Children: []*plan.Node{scan2(tb.ID, tb.Partitions)}}
		two := &plan.Node{Op: plan.OpFilter,
			Pred:     expr.And(expr.Compare(expr.FuncLT, col, r1), expr.Compare(expr.FuncGE, col, r2)),
			Children: []*plan.Node{scan2(tb.ID, tb.Partitions)}}
		rows1 := est.Estimate(one).Rows(one)
		rows2 := est.Estimate(two).Rows(two)
		return rows2 <= rows1+1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func scan2(table string, parts int) *plan.Node {
	return &plan.Node{Op: plan.OpTableScan, Table: table, PartitionsRead: parts, ColumnsAccessed: 1}
}

func TestTruthAndViewSourcesDiffer(t *testing.T) {
	a := warehouse.DefaultArchetype()
	a.Name = "tv"
	p := warehouse.Generate(simrand.New(19), a)
	truth := TruthSource(p, 5)
	if truth.Rows(p.Tables[0].ID) <= 0 {
		t.Fatal("truth rows non-positive")
	}
	if truth.Rows("missing") != 1 {
		t.Fatal("missing table should default to 1")
	}
	if truth.Partitions("missing") != 1 {
		t.Fatal("missing partitions should default to 1")
	}
}

func TestMiscOperatorOutputs(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	in := scan("a", 10) // 10k rows
	cases := []struct {
		op    plan.OpType
		check func(r float64) bool
	}{
		{plan.OpSample, func(r float64) bool { return r < 10_000 && r > 0 }},
		{plan.OpExpand, func(r float64) bool { return r == 20_000 }},
		{plan.OpValues, func(r float64) bool { return r == 1 }},
		{plan.OpTopN, func(r float64) bool { return r <= 10_000 }},
		{plan.OpWindow, func(r float64) bool { return r == 10_000 }},
	}
	for _, c := range cases {
		n := &plan.Node{Op: c.op, Children: []*plan.Node{in}}
		r := est.Estimate(n).Rows(n)
		if !c.check(r) {
			t.Fatalf("%v output %g", c.op, r)
		}
	}
}

func TestDistinctWithoutGroups(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	n := &plan.Node{Op: plan.OpDistinct, Children: []*plan.Node{scan("a", 10)}}
	r := est.Estimate(n).Rows(n)
	if r <= 0 || r > 10_000 {
		t.Fatalf("distinct output %g", r)
	}
}

func TestRowsFloorAtOne(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	// A filter with tiny selectivity over a tiny table still reports >= 1.
	f := &plan.Node{
		Op:       plan.OpFilter,
		Pred:     expr.Compare(expr.FuncEQ, expr.ColumnRef{Table: "c", Column: "k"}, 1),
		Children: []*plan.Node{scan("c", 10)},
	}
	if r := est.Estimate(f).Rows(f); r < 1 {
		t.Fatalf("rows %g below floor", r)
	}
}

func TestResultUnknownNode(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	res := est.Estimate(scan("a", 10))
	if res.Rows(&plan.Node{Op: plan.OpSort}) != 0 {
		t.Fatal("unknown node should report 0")
	}
	if res.BaseTables(&plan.Node{Op: plan.OpSort}) != 0 {
		t.Fatal("unknown node should report 0 tables")
	}
}

// TestSlottedResultGrows: a slotted result sized for two slots takes nodes
// numbered far past them, each at its own slot, with the rows a map-keyed
// Estimate computes for the same tree; a slot no node was added at, inside or
// past the grown length, reads 0 rows.
func TestSlottedResultGrows(t *testing.T) {
	est := &Estimator{Src: fixedSource()}
	res := NewSlotted(2)
	n := scan("a", 10)
	n.Slot = 1
	est.Add(res, n)
	chain := []*plan.Node{n}
	for slot := int32(3); slot < 80; slot += 2 {
		n = &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{n}, Slot: slot}
		est.Add(res, n)
		chain = append(chain, n)
	}
	want := est.Estimate(n)
	for _, c := range chain {
		if got := res.Rows(c); math.Float64bits(got) != math.Float64bits(want.Rows(c)) || got == 0 {
			t.Fatalf("slot %d: %v rows, whole-tree estimate %v", c.Slot, got, want.Rows(c))
		}
	}
	for _, slot := range []int32{2, 78, 1 << 20} {
		if got := res.Rows(&plan.Node{Slot: slot}); got != 0 {
			t.Fatalf("slot %d holds no node, yet reads %v rows", slot, got)
		}
	}
}

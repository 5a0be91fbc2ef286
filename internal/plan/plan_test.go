package plan

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"loam/internal/expr"
)

func samplePlan() *Plan {
	scanA := &Node{Op: OpTableScan, Table: "p.t1", PartitionsRead: 4, ColumnsAccessed: 3}
	scanB := &Node{Op: OpTableScan, Table: "p.t2", PartitionsRead: 1, ColumnsAccessed: 2}
	filter := &Node{
		Op:       OpFilter,
		Pred:     expr.Compare(expr.FuncEQ, expr.ColumnRef{Table: "p.t1", Column: "c"}, 5),
		Children: []*Node{scanA},
	}
	join := &Node{
		Op:        OpHashJoin,
		JoinForm:  JoinInner,
		LeftCols:  []expr.ColumnRef{{Table: "p.t1", Column: "c"}},
		RightCols: []expr.ColumnRef{{Table: "p.t2", Column: "d"}},
		Children: []*Node{
			{Op: OpExchange, Children: []*Node{filter}},
			{Op: OpExchange, Children: []*Node{scanB}},
		},
	}
	agg := &Node{
		Op:        OpHashAggregate,
		AggFuncs:  []AggFunc{AggSum},
		AggCols:   []expr.ColumnRef{{Table: "p.t1", Column: "c"}},
		GroupCols: []expr.ColumnRef{{Table: "p.t2", Column: "d"}},
		Children:  []*Node{join},
	}
	return &Plan{Root: &Node{Op: OpSelect, Children: []*Node{agg}}}
}

// TestFingerprintZeroAlloc guards the serving-path contract: the predictor
// fingerprints every candidate plan on every cached SelectPlan, so the
// structural hash must not allocate (no stdlib hash writer, no intermediate
// column/predicate strings).
func TestFingerprintZeroAlloc(t *testing.T) {
	p := samplePlan()
	want := p.Root.Fingerprint()
	allocs := testing.AllocsPerRun(100, func() {
		if p.Root.Fingerprint() != want {
			t.Fatal("fingerprint not stable")
		}
	})
	if allocs != 0 {
		t.Fatalf("Fingerprint allocated %.1f times per call, want 0", allocs)
	}
}

func TestCloneDeep(t *testing.T) {
	p := samplePlan()
	c := p.Clone()
	if c.Root.Fingerprint() != p.Root.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	// Mutate the clone; the original must be unaffected.
	c.Root.Children[0].GroupCols[0].Column = "zzz"
	c.Root.Children[0].Children[0].Children[0].Children[0].Pred.Args[0] = 99
	if c.Root.Fingerprint() == p.Root.Fingerprint() {
		t.Fatal("mutation should change fingerprint")
	}
	if p.Root.Children[0].GroupCols[0].Column == "zzz" {
		t.Fatal("clone shares GroupCols")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := samplePlan().Root.Fingerprint()
	mutations := []func(p *Plan){
		func(p *Plan) { p.Root.Children[0].Op = OpSortAggregate },
		func(p *Plan) { p.Root.Children[0].Children[0].JoinForm = JoinLeft },
		func(p *Plan) { findScan(p.Root, "p.t1").PartitionsRead = 2 },
		func(p *Plan) { findScan(p.Root, "p.t2").Table = "p.t9" },
		func(p *Plan) { p.Root.Children[0].AggFuncs[0] = AggMax },
	}
	for i, mut := range mutations {
		p := samplePlan()
		mut(p)
		if p.Root.Fingerprint() == base {
			t.Fatalf("mutation %d did not change fingerprint", i)
		}
	}
}

// TestEqualCoversFingerprintFields holds Node.Equal and Node.fingerprint to
// one field list: the explorer drops a plan Equal calls a duplicate, and
// everything downstream identifies plans by fingerprint, so the two must
// never disagree on what makes plans differ. Each row mutates one field of one
// node; a row changes both or neither. Every field of Node and of expr.Node
// must have a row, so a field added to either struct fails here until Equal
// and fingerprint both learn it.
func TestEqualCoversFingerprintFields(t *testing.T) {
	join := func(p *Plan) *Node { return p.Root.Children[0].Children[0] }
	agg := func(p *Plan) *Node { return p.Root.Children[0] }
	filter := func(p *Plan) *Node { return join(p).Children[0].Children[0] }
	other := expr.ColumnRef{Table: "p.t3", Column: "x"}
	rows := []struct {
		field   string // the Node (or expr.Node, "Pred.") field mutated
		differs bool
		mutate  func(p *Plan)
	}{
		{"Op", true, func(p *Plan) { agg(p).Op = OpSortAggregate }},
		{"Children", true, func(p *Plan) { p.Root.Children = append(p.Root.Children, &Node{Op: OpValues}) }},
		{"Children", true, func(p *Plan) { j := join(p); j.Children[0], j.Children[1] = j.Children[1], j.Children[0] }},
		{"Children", false, func(p *Plan) { p.Root.Children = append([]*Node(nil), p.Root.Children...) }},
		{"Table", true, func(p *Plan) { findScan(p.Root, "p.t2").Table = "p.t9" }},
		{"PartitionsRead", true, func(p *Plan) { findScan(p.Root, "p.t1").PartitionsRead = 2 }},
		{"ColumnsAccessed", true, func(p *Plan) { findScan(p.Root, "p.t1").ColumnsAccessed = 9 }},
		{"JoinForm", true, func(p *Plan) { join(p).JoinForm = JoinLeft }},
		{"LeftCols", true, func(p *Plan) { join(p).LeftCols[0] = other }},
		{"RightCols", true, func(p *Plan) { join(p).RightCols = append(join(p).RightCols, other) }},
		{"AggFuncs", true, func(p *Plan) { agg(p).AggFuncs[0] = AggMax }},
		{"AggCols", true, func(p *Plan) { agg(p).AggCols[0].Column = "z" }},
		{"GroupCols", true, func(p *Plan) { agg(p).GroupCols = nil }},
		{"Parallelism", true, func(p *Plan) { join(p).Children[1].Parallelism = 128 }},
		{"Pred", true, func(p *Plan) { filter(p).Pred = nil }},
		{"Pred", true, func(p *Plan) { findScan(p.Root, "p.t2").Pred = expr.Compare(expr.FuncIsNull, other) }},
		{"Pred", false, func(p *Plan) { filter(p).Pred = filter(p).Pred.Clone() }},
		{"Pred.Fn", true, func(p *Plan) { filter(p).Pred.Fn = expr.FuncNE }},
		{"Pred.Col", true, func(p *Plan) { filter(p).Pred.Col = other }},
		{"Pred.Args", true, func(p *Plan) { filter(p).Pred.Args[0] = 6 }},
		{"Pred.Args", true, func(p *Plan) { filter(p).Pred.Args = append(filter(p).Pred.Args, 5) }},
		{"Pred.Children", true, func(p *Plan) { filter(p).Pred = expr.Not(filter(p).Pred) }},
		// Not a tree field: the knob labels name the setting, not the plan.
		{"", false, func(p *Plan) { p.Knobs = []string{"flag:mergeJoin"} }},
	}
	covered := map[string]bool{}
	base := samplePlan()
	for i, row := range rows {
		covered[row.field] = true
		p := samplePlan()
		row.mutate(p)
		fpDiffers := p.Root.Fingerprint() != base.Root.Fingerprint()
		eqDiffers := !p.Root.Equal(base.Root) || !base.Root.Equal(p.Root)
		if fpDiffers != row.differs || eqDiffers != row.differs {
			t.Errorf("row %d (%s): fingerprint differs %v, Equal differs %v, want %v",
				i, row.field, fpDiffers, eqDiffers, row.differs)
		}
	}
	for prefix, typ := range map[string]reflect.Type{"": reflect.TypeOf(Node{}), "Pred.": reflect.TypeOf(expr.Node{})} {
		for i := 0; i < typ.NumField(); i++ {
			if name := prefix + typ.Field(i).Name; !covered[name] {
				t.Errorf("no row mutates %s: is it compared by Equal and folded by fingerprint?", name)
			}
		}
	}
}

func findScan(n *Node, table string) *Node {
	var out *Node
	n.Walk(func(m *Node) {
		if m.Op == OpTableScan && m.Table == table {
			out = m
		}
	})
	return out
}

func TestSizeDepthTables(t *testing.T) {
	p := samplePlan()
	if got := p.Root.Size(); got != 8 {
		t.Fatalf("size %d", got)
	}
	if got := p.Root.Depth(); got != 6 {
		t.Fatalf("depth %d", got)
	}
	tables := p.Root.Tables()
	if len(tables) != 2 || tables[0] != "p.t1" || tables[1] != "p.t2" {
		t.Fatalf("tables %v", tables)
	}
}

func TestCanonicalizeBinary(t *testing.T) {
	union := &Node{Op: OpUnion, Children: []*Node{
		{Op: OpTableScan, Table: "a"},
		{Op: OpTableScan, Table: "b"},
		{Op: OpTableScan, Table: "c"},
		{Op: OpTableScan, Table: "d"},
	}}
	canon := union.Canonicalize()
	canon.Walk(func(n *Node) {
		if len(n.Children) > 2 {
			t.Fatalf("node %v has %d children after canonicalize", n.Op, len(n.Children))
		}
	})
	// All four scans survive.
	if got := len(canon.Tables()); got != 4 {
		t.Fatalf("tables after canonicalize: %d", got)
	}
	// Original untouched.
	if len(union.Children) != 4 {
		t.Fatal("canonicalize mutated the original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := samplePlan()
	p.Knobs = []string{"flag:mergeJoin"}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Root.Fingerprint() != p.Root.Fingerprint() {
		t.Fatal("round-trip changed fingerprint")
	}
	if len(back.Knobs) != 1 || back.Knobs[0] != "flag:mergeJoin" {
		t.Fatalf("knobs lost: %v", back.Knobs)
	}
}

func TestIsDefault(t *testing.T) {
	p := samplePlan()
	if !p.IsDefault() {
		t.Fatal("no-knob plan should be default")
	}
	p.Knobs = []string{"flag:dopHigh"}
	if p.IsDefault() {
		t.Fatal("knobbed plan should not be default")
	}
}

func TestStringRendering(t *testing.T) {
	s := samplePlan().String()
	for _, want := range []string{"Select", "HashAggregate", "HashJoin", "TableScan(p.t1", "Exchange"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q in:\n%s", want, s)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpHashJoin.IsJoin() || OpTableScan.IsJoin() {
		t.Fatal("IsJoin wrong")
	}
	if !OpHashAggregate.IsAggregate() || OpSort.IsAggregate() {
		t.Fatal("IsAggregate wrong")
	}
	if !OpExchange.IsExchange() || !OpBroadcastExchange.IsExchange() || OpSpool.IsExchange() {
		t.Fatal("IsExchange wrong")
	}
	if !OpFilter.IsFilterLike() || !OpCalc.IsFilterLike() || OpProject.IsFilterLike() {
		t.Fatal("IsFilterLike wrong")
	}
}

func TestOpNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for op := OpType(1); int(op) <= NumOpTypes; op++ {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "Op(") {
			t.Fatalf("operator %d unnamed", op)
		}
		if seen[name] {
			t.Fatalf("duplicate name %q", name)
		}
		seen[name] = true
	}
}

func TestLogNormBounds(t *testing.T) {
	if err := quick.Check(func(vRaw, maxRaw uint32) bool {
		v := float64(vRaw % 100000)
		maxV := float64(maxRaw%100000) + 1
		x := LogNorm(v, maxV)
		return x >= 0 && x <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
	if LogNorm(-5, 10) != 0 {
		t.Fatal("negative input should clamp to 0")
	}
	if LogNorm(10, 10) != 1 {
		t.Fatal("v == max should be 1")
	}
	if LogNorm(5, 0) != 0 {
		t.Fatal("max 0 should return 0")
	}
}

func TestWalkPreorder(t *testing.T) {
	p := samplePlan()
	var ops []OpType
	p.Root.Walk(func(n *Node) { ops = append(ops, n.Op) })
	if ops[0] != OpSelect || ops[1] != OpHashAggregate {
		t.Fatalf("walk order %v", ops)
	}
	if len(ops) != p.Root.Size() {
		t.Fatalf("walk visited %d of %d", len(ops), p.Root.Size())
	}
}

func TestRoughSealScope(t *testing.T) {
	p := samplePlan()
	scopeA, scopeB := new(int), new(int)
	if _, ok := p.SealedRough(scopeA); ok {
		t.Fatal("unsealed plan answered")
	}
	p.Seal()
	p.SealRough(scopeA, 42.5)
	if c, ok := p.SealedRough(scopeA); !ok || c != 42.5 {
		t.Fatalf("sealed rough cost %v/%v under its own scope", c, ok)
	}
	if _, ok := p.SealedRough(scopeB); ok {
		t.Fatal("seal answered under another scope")
	}
	if _, ok := p.SealedRough(nil); ok {
		t.Fatal("seal answered under the nil scope")
	}

	// Copies are for mutation: neither seal survives Clone or JSON.
	clone := p.Clone()
	if _, ok := clone.SealedRough(scopeA); ok {
		t.Fatal("Clone kept the rough seal")
	}
	if _, ok := clone.SealedFingerprint(); ok {
		t.Fatal("Clone kept the fingerprint seal")
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if _, ok := back.SealedRough(scopeA); ok {
		t.Fatal("JSON round trip kept the rough seal")
	}
	if back.Root.Fingerprint() != p.CacheFingerprint() {
		t.Fatal("round trip changed the plan")
	}
}

package encoding

import (
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"loam/internal/expr"
	"loam/internal/plan"
)

// unionPlan has a 3-way union so the flat tree encoder exercises the
// canonicalization fallback.
func unionPlan() *plan.Plan {
	scan := func(t string) *plan.Node {
		return &plan.Node{Op: plan.OpTableScan, Table: t, PartitionsRead: 4, ColumnsAccessed: 2}
	}
	union := &plan.Node{
		Op:       plan.OpUnion,
		Children: []*plan.Node{scan("p.a"), scan("p.b"), scan("p.c")},
	}
	return &plan.Plan{Root: union}
}

// compoundFilterPlan has a connective predicate with repeated functions and a
// repeated column, for pinning encodePred's direct walk to the dedup-and-sort
// Funcs()/Columns() reference.
func compoundFilterPlan() *plan.Plan {
	scan := &plan.Node{Op: plan.OpTableScan, Table: "p.t1", PartitionsRead: 4, ColumnsAccessed: 2}
	c1 := expr.ColumnRef{Table: "p.t1", Column: "c1"}
	c2 := expr.ColumnRef{Table: "p.t1", Column: "c2"}
	pred := expr.Or(
		expr.And(expr.Compare(expr.FuncGT, c1, 3), expr.Compare(expr.FuncLT, c1, 9)),
		expr.Compare(expr.FuncGT, c2, 7),
	)
	filter := &plan.Node{Op: plan.OpFilter, Pred: pred, Children: []*plan.Node{scan}}
	return &plan.Plan{Root: filter}
}

// preorder lists a subtree's nodes in the order the flat encoders emit rows.
func preorder(root *plan.Node) []*plan.Node {
	var out []*plan.Node
	root.Walk(func(n *plan.Node) { out = append(out, n) })
	return out
}

// pointerEnv observes exactly the nodes of p — an EnvSource keyed on node
// identity, as RecordEnv's is. FixedEnv cannot tell an original node from the
// clone canonicalization makes of it.
func pointerEnv(env [4]float64, p *plan.Plan) EnvSource {
	nodes := preorder(p.Root)
	return func(n *plan.Node) ([4]float64, bool) { return env, slices.Contains(nodes, n) }
}

// wantRows checks that feats holds one stride-wide row per node of want: its
// own vector (columns past Dim are the caller's to check), environment-observed
// below index observed and unobserved from there on.
func wantRows(t *testing.T, e *Encoder, feats []float64, stride int, env [4]float64, want []*plan.Node, observed int) {
	t.Helper()
	if len(feats) != len(want)*stride {
		t.Fatalf("%d values, want %d rows × %d", len(feats), len(want), stride)
	}
	for i, n := range want {
		row := encodeNode(e, n, env, i < observed)
		for j, v := range row {
			if g := feats[i*stride+j]; math.Float64bits(v) != math.Float64bits(g) {
				t.Fatalf("row %d (%v) col %d: %v, want %v", i, n.Op, j, g, v)
			}
		}
	}
}

// TestEncodeTreeFlatMatchesEncodeTree pins the tree encoder to literal
// expectations (until PR 20 its reference was the allocating EncodeTree):
// which node each preorder row encodes, the gather indices, and the pairing
// rule — below a folded n-ary operator the clone is looked up, so an
// identity-keyed environment source reads as unobserved.
func TestEncodeTreeFlatMatchesEncodeTree(t *testing.T) {
	e := enc()
	env := [4]float64{0.3, 0.1, 0.9, 0.5}
	binary, union, compound := testPlan(), unionPlan(), compoundFilterPlan()
	u := union.Root
	for _, tc := range []struct {
		name        string
		p           *plan.Plan
		rows        []*plan.Node
		observed    int
		left, right []int
	}{
		// agg(join(exch(filter(scanA)), exch(scanB)))
		{"binary", binary, preorder(binary.Root), 7, []int{1, 2, 3, 4, -1, 6, -1}, []int{-1, 5, -1, -1, -1, -1, -1}},
		// Union(a, b, c) folds left-deep to Union(Union(a, b), c); only the
		// root still pairs with an original node.
		{"nary-union", union, []*plan.Node{u, {Op: plan.OpUnion}, u.Children[0], u.Children[1], u.Children[2]}, 1,
			[]int{1, 2, -1, -1, -1}, []int{4, 3, -1, -1, -1}},
		{"compound-filter", compound, preorder(compound.Root), 2, []int{1, -1}, []int{-1, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ft FlatTree
			e.EncodeTreeFlatInto(&ft, tc.p, pointerEnv(env, tc.p))
			wantRows(t, e, ft.Feats, e.Dim(), env, tc.rows, tc.observed)
			for i := range tc.rows {
				if ft.Self[i] != i || ft.Left[i] != tc.left[i] || ft.Right[i] != tc.right[i] {
					t.Fatalf("Self %v Left %v Right %v, want 0.. %v %v", ft.Self, ft.Left, ft.Right, tc.left, tc.right)
				}
			}
		})
	}

	// encodePred's direct walk sets exactly the bits of the dedup-and-sort
	// Funcs()/Columns() reference: idempotent bit sets make the two equal.
	pred := compound.Root.Pred
	ref := make([]float64, e.Dim())
	for _, fn := range pred.Funcs() {
		ref[e.layout.filterFnOff+int(fn)-1] = 1
	}
	for _, c := range pred.Columns() {
		e.hashID(ref, e.layout.filterColsOff, c.String())
	}
	got := encodeNode(e, compound.Root, env, false)
	for j := e.layout.filterFnOff; j < e.layout.predNumOff; j++ {
		if got[j] != ref[j] {
			t.Fatalf("predicate feature %d = %v, reference %v", j, got[j], ref[j])
		}
	}
}

// TestEncodeGraphFlatMatchesEncodeGraph pins the graph encoder: preorder
// rows, and one (parent, child) edge per child in subtree-completion order.
func TestEncodeGraphFlatMatchesEncodeGraph(t *testing.T) {
	e := enc()
	p := testPlan()
	env := [4]float64{0.2, 0.4, 0.6, 0.8}
	var fg FlatGraph
	e.EncodeGraphFlatInto(&fg, p, pointerEnv(env, p))
	wantRows(t, e, fg.Feats, e.Dim(), env, preorder(p.Root), fg.Len())
	if want := [][2]int{{3, 4}, {2, 3}, {1, 2}, {5, 6}, {1, 5}, {0, 1}}; !slices.Equal(fg.Edges, want) {
		t.Fatalf("edges %v, want %v", fg.Edges, want)
	}
}

// TestEncodeSequenceFlatMatchesEncodeSequence pins the sequence encoder:
// preorder tokens, each its node's vector plus the log-normalized depth.
func TestEncodeSequenceFlatMatchesEncodeSequence(t *testing.T) {
	e := enc()
	p := testPlan()
	var fs FlatSeq
	e.EncodeSequenceFlatInto(&fs, p, NoEnv())
	wantRows(t, e, fs.Feats, e.SeqDim(), [4]float64{}, preorder(p.Root), 0)
	for i, depth := range []float64{0, 1, 2, 3, 4, 2, 3} {
		if got, want := fs.Feats[i*e.SeqDim()+e.Dim()], plan.LogNorm(depth, 32); got != want {
			t.Fatalf("token %d depth column %v, want %v (depth %v)", i, got, want, depth)
		}
	}
}

// TestFlatEncodersReuseBuffers verifies the *Into encoders stop allocating
// once their buffers have grown to workload size — including filter nodes,
// whose predicates are folded in by encodePred's allocation-free walk.
func TestFlatEncodersReuseBuffers(t *testing.T) {
	e := enc()
	envs := FixedEnv([4]float64{0.5, 0.5, 0.5, 0.5})

	// Scans, exchanges, a predicated filter, join, aggregate.
	scanA := &plan.Node{Op: plan.OpTableScan, Table: "p.t1", PartitionsRead: 8, ColumnsAccessed: 3}
	scanB := &plan.Node{Op: plan.OpTableScan, Table: "p.t2", PartitionsRead: 2, ColumnsAccessed: 1}
	filter := &plan.Node{
		Op: plan.OpFilter,
		Pred: expr.And(
			expr.Compare(expr.FuncGT, expr.ColumnRef{Table: "p.t1", Column: "c1"}, 3),
			expr.Compare(expr.FuncEQ, expr.ColumnRef{Table: "p.t1", Column: "c2"}, 5),
		),
		Children: []*plan.Node{scanA},
	}
	join := &plan.Node{
		Op: plan.OpHashJoin, JoinForm: plan.JoinInner,
		Children: []*plan.Node{
			{Op: plan.OpExchange, Children: []*plan.Node{filter}, Parallelism: 64},
			{Op: plan.OpExchange, Children: []*plan.Node{scanB}},
		},
	}
	agg := &plan.Node{
		Op:       plan.OpHashAggregate,
		AggFuncs: []plan.AggFunc{plan.AggSum},
		Children: []*plan.Node{join},
	}
	p := &plan.Plan{Root: agg}

	var ft FlatTree
	e.EncodeTreeFlatInto(&ft, p, envs)
	if allocs := testing.AllocsPerRun(50, func() { e.EncodeTreeFlatInto(&ft, p, envs) }); allocs != 0 {
		t.Fatalf("warmed EncodeTreeFlatInto allocated %.1f/run, want 0", allocs)
	}

	var fg FlatGraph
	e.EncodeGraphFlatInto(&fg, p, envs)
	if allocs := testing.AllocsPerRun(50, func() { e.EncodeGraphFlatInto(&fg, p, envs) }); allocs != 0 {
		t.Fatalf("warmed EncodeGraphFlatInto allocated %.1f/run, want 0", allocs)
	}

	var fs FlatSeq
	e.EncodeSequenceFlatInto(&fs, p, envs)
	if allocs := testing.AllocsPerRun(50, func() { e.EncodeSequenceFlatInto(&fs, p, envs) }); allocs != 0 {
		t.Fatalf("warmed EncodeSequenceFlatInto allocated %.1f/run, want 0", allocs)
	}
}

// TestInlineFNVMatchesStdlib pins the inlined FNV-1a helpers to hash/fnv:
// identifier hash positions must never move, or every trained model's
// encoding would silently change.
func TestInlineFNVMatchesStdlib(t *testing.T) {
	for _, id := range []string{"", "p.t1", "some.table", "a.very.long.identifier_with_underscores"} {
		for seed := byte(1); seed <= 5; seed++ {
			h := fnv.New64a()
			_, _ = h.Write([]byte{seed})
			_, _ = h.Write([]byte(id))
			want := h.Sum64()
			got := fnvString(fnvByte(fnvOffset64, seed), id)
			if got != want {
				t.Fatalf("inline fnv(%q, seed %d) = %#x, stdlib %#x", id, seed, got, want)
			}
		}
	}
}

// TestHashColMatchesHashID verifies the string-free column hash lands on the
// same bits as hashing c.String().
func TestHashColMatchesHashID(t *testing.T) {
	e := enc()
	c := expr.ColumnRef{Table: "proj.orders", Column: "amount"}
	a := make([]float64, e.Dim())
	b := make([]float64, e.Dim())
	e.hashID(a, e.layout.joinColsOff, c.String())
	e.hashCol(b, e.layout.joinColsOff, c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bit %d differs between hashID and hashCol", i)
		}
	}
}

func TestEnvKeys(t *testing.T) {
	a := FixedEnvKey([4]float64{0.1, 0.2, 0.3, 0.4})
	b := FixedEnvKey([4]float64{0.1, 0.2, 0.3, 0.4})
	c := FixedEnvKey([4]float64{0.1, 0.2, 0.3, 0.5})
	n := NoEnvKey()
	z := FixedEnvKey([4]float64{})

	if !a.Keyed || !n.Keyed {
		t.Fatal("constructed keys must be Keyed")
	}
	if (EnvKey{}).Keyed {
		t.Fatal("zero EnvKey must be unkeyed")
	}
	if a != b {
		t.Fatal("identical env vectors must produce identical keys")
	}
	if a == c {
		t.Fatal("different env vectors must produce different keys")
	}
	// "No environment" encodes hasEnv=0 and must never collide with the
	// all-zeros fixed environment, which encodes hasEnv=1.
	if n == z {
		t.Fatal("NoEnvKey must differ from FixedEnvKey(zeros)")
	}
}

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

// explorerStyleSet is a candidate set shaped like the explorer's: a base plan
// and clones that each differ from it in one place — a join operator, a join
// order rotation, a pushed predicate, a PartitionsRead — plus a plan holding
// the same scan subtree twice and the 3-way Union that folds.
func explorerStyleSet() []*plan.Plan {
	base := testPlan()
	join := func(p *plan.Plan) *plan.Node { return p.Root.Children[0] }
	flip := base.Clone()
	join(flip).Op = plan.OpMergeJoin
	rotate := base.Clone()
	j := join(rotate)
	j.Children[0], j.Children[1] = j.Children[1], j.Children[0]
	j.LeftCols, j.RightCols = j.RightCols, j.LeftCols
	push := base.Clone()
	exB := join(push).Children[1]
	exB.Children[0] = &plan.Node{
		Op:       plan.OpFilter,
		Pred:     expr.Compare(expr.FuncGT, expr.ColumnRef{Table: "p.t2", Column: "c2"}, 1),
		Children: []*plan.Node{exB.Children[0]},
	}
	parts := base.Clone()
	join(parts).Children[1].Children[0].PartitionsRead = 3
	twice := base.Clone()
	join(twice).Children[1] = join(twice).Children[0].Clone()
	return []*plan.Plan{base, flip, rotate, push, parts, twice, unionPlan()}
}

// wantForestOf checks that f expands to exactly the per-plan encodings: plan
// k's row list names, in EncodeTreeFlatInto's preorder, rows whose feature
// bits are that encoding's and whose children are the rows of its children.
func wantForestOf(t *testing.T, e *Encoder, f *Forest, plans []*plan.Plan, envs EnvSource) {
	t.Helper()
	if len(f.ends) != len(plans)+1 {
		t.Fatalf("forest holds %d plans, want %d", len(f.ends)-1, len(plans))
	}
	child := func(rows, idx []int, i int) int {
		if idx[i] < 0 {
			return -1
		}
		return rows[idx[i]]
	}
	nodes := 0
	for k, p := range plans {
		var ft FlatTree
		e.EncodeTreeFlatInto(&ft, p, envs)
		rows := f.PlanRows(k)
		if len(rows) != ft.Len() {
			t.Fatalf("plan %d: %d rows, want %d", k, len(rows), ft.Len())
		}
		nodes += len(rows)
		for i, r := range rows {
			if !sameBits(ft.Feats[i*e.Dim():(i+1)*e.Dim()], f.Feats[r*e.Dim():(r+1)*e.Dim()]) {
				t.Fatalf("plan %d node %d: forest row %d holds other features", k, i, r)
			}
			if f.Self[r] != r || f.Left[r] != child(rows, ft.Left, i) || f.Right[r] != child(rows, ft.Right, i) {
				t.Fatalf("plan %d node %d: forest row %d has children (%d, %d), want (%d, %d)",
					k, i, r, f.Left[r], f.Right[r], child(rows, ft.Left, i), child(rows, ft.Right, i))
			}
		}
	}
	if len(f.order) != nodes {
		t.Fatalf("%d nodes listed, want %d", len(f.order), nodes)
	}
}

// TestEncodeForestSharesExactly pins the forest encoder: it expands to the
// per-plan encodings under every kind of environment source, shares what a
// literal candidate set says it must, and shares nothing a per-node source
// tells apart.
func TestEncodeForestSharesExactly(t *testing.T) {
	e := enc()
	env := [4]float64{0.3, 0.1, 0.9, 0.5}
	set := explorerStyleSet()

	// Every node its own environment: no two rows are equal, nothing shares.
	perNode := map[*plan.Node][4]float64{}
	for _, p := range set {
		for _, n := range preorder(p.Root) {
			perNode[n] = [4]float64{float64(len(perNode)) / 1024}
		}
	}
	for _, src := range []struct {
		name     string
		envs     EnvSource
		distinct int // 0: only bounded
	}{
		{"FixedEnv", FixedEnv(env), 0},
		{"NoEnv", NoEnv(), 0},
		// Only the base plan's nodes are observed, as RecordEnv observes only
		// the nodes of the record it was built from.
		{"pointerEnv", pointerEnv(env, set[0]), 0},
		{"perNode", func(n *plan.Node) ([4]float64, bool) { v, ok := perNode[n]; return v, ok }, -1},
	} {
		t.Run(src.name, func(t *testing.T) {
			var f Forest
			e.EncodeForestInto(&f, set, src.envs)
			wantForestOf(t, e, &f, set, src.envs)
			if src.distinct < 0 {
				// The folded Union's nested clone and third scan are looked
				// up as clones, unobserved — and differ anyway.
				if f.Len() != len(f.order) {
					t.Fatalf("per-node environments shared rows: %d rows for %d nodes", f.Len(), len(f.order))
				}
				// Sharing nothing, the rows are in EncodeTreeFlatInto's order.
				for i, r := range f.order {
					if r != i {
						t.Fatalf("unshared forest lists row %d at preorder position %d", r, i)
					}
				}
				return
			}
			if f.Len() >= len(f.order)*2/3 {
				t.Fatalf("%d rows for %d nodes: the set's common subtrees were not shared", f.Len(), len(f.order))
			}

			// Exactness does not rest on the hash: with every node in one
			// bucket the forest is the same forest, compare by compare.
			var one Forest
			one.tab.oneBucket = true
			e.EncodeForestInto(&one, set, src.envs)
			if !slices.Equal(one.order, f.order) || !slices.Equal(one.ends, f.ends) ||
				!slices.Equal(one.Left, f.Left) || !slices.Equal(one.Right, f.Right) || !sameBits(one.Feats, f.Feats) {
				t.Fatal("a constant bucket hash changed the forest")
			}
		})
	}

	// A literal set: the base (7 nodes); a flipped join operator re-uses both
	// exchange subtrees and adds the join and the aggregate above it (2); a
	// changed PartitionsRead adds the scan and everything above it (4).
	var f Forest
	literal := []*plan.Plan{set[0], set[1], set[4]}
	e.EncodeForestInto(&f, literal, FixedEnv(env))
	if f.Len() != 13 || len(f.order) != 21 {
		t.Fatalf("literal set: %d rows for %d nodes, want 13 for 21", f.Len(), len(f.order))
	}
	if a, b := f.PlanRows(0), f.PlanRows(1); a[2] != b[2] || a[5] != b[5] || a[1] == b[1] || a[0] == b[0] {
		t.Fatalf("flipped join: rows %v vs %v, want the exchanges shared and the join and aggregate apart", a, b)
	}
	// The same subtree twice in one plan is one row, listed twice.
	e.EncodeForestInto(&f, set[5:6], FixedEnv(env))
	if rows := f.PlanRows(0); rows[2] != rows[5] || f.Len() != 5 {
		t.Fatalf("repeated subtree: rows %v over %d distinct, want one exchange subtree and 5", rows, f.Len())
	}
}

// TestEncodeForestTableFullStopsSharing fills the subtree table for real —
// more distinct subtrees than it takes — and checks what the guard promises:
// from there on every node gets a row of its own, and the forest still
// expands to the per-plan encodings. A reused forest starts empty again, also
// across the generation stamp's wrap.
func TestEncodeForestTableFullStopsSharing(t *testing.T) {
	e := enc()
	envs := FixedEnv([4]float64{0.5, 0.5, 0.5, 0.5})
	var filler []*plan.Plan
	for i := 0; i < subtreeSlots*3/4; i++ {
		filler = append(filler, &plan.Plan{Root: &plan.Node{Op: plan.OpTableScan, Table: "p.t", PartitionsRead: i + 1, ColumnsAccessed: 1}})
	}
	set := explorerStyleSet()
	all := append(append([]*plan.Plan{}, filler...), set...)
	all = append(all, filler[0]) // in the table, and still not shared once it is full

	var f Forest
	e.EncodeForestInto(&f, all, envs)
	wantForestOf(t, e, &f, all, envs)
	if f.Len() != len(f.order) {
		t.Fatalf("full table still shared: %d rows for %d nodes", f.Len(), len(f.order))
	}

	f.tab.gen = math.MaxUint32 // the next reset wraps
	for range 2 {
		e.EncodeForestInto(&f, set, envs)
		wantForestOf(t, e, &f, set, envs)
		if f.Len() >= len(f.order)*2/3 {
			t.Fatalf("reused forest: %d rows for %d nodes, sharing lost", f.Len(), len(f.order))
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

	var f Forest
	pair := []*plan.Plan{p, p}
	e.EncodeForestInto(&f, pair, envs)
	if allocs := testing.AllocsPerRun(50, func() { e.EncodeForestInto(&f, pair, envs) }); allocs != 0 {
		t.Fatalf("warmed EncodeForestInto allocated %.1f/run, want 0", allocs)
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

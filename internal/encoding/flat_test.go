package encoding

import (
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"sync"
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
		row := oracleNode(e, n, env, i < observed)
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
		denseHashID(e, ref, e.layout.filterColsOff, c.String())
	}
	got := make([]float64, e.Dim())
	e.EncodeNodeInto(got, compound.Root, env, false)
	for j := e.layout.filterFnOff; j < e.layout.predNumOff; j++ {
		if got[j] != ref[j] {
			t.Fatalf("predicate feature %d = %v, reference %v", j, got[j], ref[j])
		}
	}
}

// explorerStyleSet is a candidate set shaped like the explorer's: a base plan
// and clones that each differ from it in one place — a join operator, a join
// order rotation, a pushed predicate, a PartitionsRead — plus a plan holding
// the same scan subtree twice as two pointers, the 3-way Union that folds,
// the base's join re-planned over the base's own exchange subtrees (the
// explorer shares scan subplans by pointer) and, last, a plan holding the
// base's right exchange both outside a folded Union and under it.
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
	sharedJoin, sharedRoot := *join(base), *base.Root
	sharedJoin.Op = plan.OpMergeJoin
	sharedRoot.Children = []*plan.Node{&sharedJoin}
	right, scans := join(base).Children[1], unionPlan().Root.Children
	mixed := &plan.Node{Op: plan.OpHashJoin, JoinForm: plan.JoinInner, Children: []*plan.Node{
		right, {Op: plan.OpUnion, Children: []*plan.Node{right, scans[0], scans[1]}},
	}}
	return []*plan.Plan{base, flip, rotate, push, parts, twice, unionPlan(), {Root: &sharedRoot}, {Root: mixed}}
}

// wantForestOf checks that f expands to exactly the per-plan encodings: plan
// k's entries name, in EncodeTreeFlatInto's preorder, rows whose feature bits
// are that encoding's and children that are the entries of its children.
func wantForestOf(t *testing.T, e *Encoder, f *Forest, plans []*plan.Plan, envs EnvSource) {
	t.Helper()
	wantForestUnder(t, e, f, plans, func(int) EnvSource { return envs })
}

// wantForestUnder is wantForestOf with plan k encoded under envsOf(k). It
// also checks SubtreeLen: a node's right child sits past its left subtree.
func wantForestUnder(t *testing.T, e *Encoder, f *Forest, plans []*plan.Plan, envsOf func(k int) EnvSource) {
	t.Helper()
	if len(f.ends) != len(plans)+1 {
		t.Fatalf("forest holds %d plans, want %d", len(f.ends)-1, len(plans))
	}
	child := func(ids, idx []int, i int) int {
		if idx[i] < 0 {
			return -1
		}
		return ids[idx[i]]
	}
	nodes := 0
	for k, p := range plans {
		var ft FlatTree
		e.EncodeTreeFlatInto(&ft, p, envsOf(k))
		ids := f.PlanNodes(k)
		if len(ids) != ft.Len() {
			t.Fatalf("plan %d: %d entries, want %d", k, len(ids), ft.Len())
		}
		nodes += len(ids)
		for i, id := range ids {
			r := f.Row[id]
			if !sameBits(ft.Feats[i*e.Dim():(i+1)*e.Dim()], f.Dense()[r*e.Dim():(r+1)*e.Dim()]) {
				t.Fatalf("plan %d node %d: entry %d's row %d holds other features", k, i, id, r)
			}
			if f.Left[id] != child(ids, ft.Left, i) || f.Right[id] != child(ids, ft.Right, i) {
				t.Fatalf("plan %d node %d: entry %d has children (%d, %d), want (%d, %d)",
					k, i, id, f.Left[id], f.Right[id], child(ids, ft.Left, i), child(ids, ft.Right, i))
			}
			if ft.Right[i] >= 0 && ft.Right[i] != i+1+f.SubtreeLen(f.Left[id]) {
				t.Fatalf("plan %d node %d: right child at %d, SubtreeLen puts it at %d", k, i, ft.Right[i], i+1+f.SubtreeLen(f.Left[id]))
			}
		}
	}
	if len(f.order) != nodes || !slices.Equal(f.Nodes(), f.order) {
		t.Fatalf("%d nodes listed, want %d", len(f.order), nodes)
	}
}

// TestAppendForestMemoPerSource pins the pointer memo to one AppendForest
// call, the contract a training minibatch rests on: plans appended under two
// sources that tell their shared nodes apart expand, call by call, to the
// per-plan encodings under that call's source — the second call encodes the
// pointers the first holds again instead of listing the first's entries —
// while within a call a repeated pointer is still listed, not encoded.
func TestAppendForestMemoPerSource(t *testing.T) {
	e := enc()
	set := explorerStyleSet()
	pair := []*plan.Plan{set[0], set[7]} // set[7] re-plans a join over set[0]'s exchanges
	a := pointerEnv([4]float64{0.3, 0.1, 0.9, 0.5}, set[0])
	b := pointerEnv([4]float64{0.7, 0.2, 0.1, 0.5}, set[0])
	var f Forest
	e.StartForest(&f)
	e.AppendForest(&f, pair, a)
	first := len(f.Row)
	e.AppendForest(&f, pair, b)
	plans := append(append([]*plan.Plan{}, pair...), pair...)
	wantForestUnder(t, e, &f, plans, func(k int) EnvSource {
		if k < len(pair) {
			return a
		}
		return b
	})
	if first != 9 || len(f.Row) != 2*first {
		t.Fatalf("%d entries after the first call and %d after both, want 9 and 18", first, len(f.Row))
	}
	for k := len(pair); k < len(plans); k++ {
		for _, id := range f.PlanNodes(k) {
			if id < first {
				t.Fatalf("plan %d lists entry %d, encoded under the first call's source", k, id)
			}
		}
	}
}

// rowsDistinct reports whether no two of f's feature rows are Float64bits-equal.
func rowsDistinct(f *Forest) bool {
	feats := f.Dense()
	for a := range f.Rows() {
		for b := range a {
			if sameBits(feats[a*f.dim:(a+1)*f.dim], feats[b*f.dim:(b+1)*f.dim]) {
				return false
			}
		}
	}
	return true
}

// TestEncodeForestSharesExactly pins the forest encoder: it expands to the
// per-plan encodings under every kind of environment source, holds each
// feature row once, lists a pointer it already holds instead of encoding it
// again — never a node of a plan that folds — shares what a literal
// candidate set says it must, and nothing a per-node source tells apart.
func TestEncodeForestSharesExactly(t *testing.T) {
	e := enc()
	env := [4]float64{0.3, 0.1, 0.9, 0.5}
	set := explorerStyleSet()

	// Every node its own environment: no two rows are equal, so every encoded
	// node is its own layer-0 class. The last plan sits out: the Union it
	// folds is a clone, looked up unobserved, and encodes as unionPlan's does.
	perNode := map[*plan.Node][4]float64{}
	for _, p := range set {
		for _, n := range preorder(p.Root) {
			perNode[n] = [4]float64{float64(len(perNode)) / 1024}
		}
	}
	for _, src := range []struct {
		name    string
		envs    EnvSource
		perNode bool
	}{
		{"FixedEnv", FixedEnv(env), false},
		{"NoEnv", NoEnv(), false},
		// Only the base plan's nodes are observed, as RecordEnv observes only
		// the nodes of the record it was built from.
		{"pointerEnv", pointerEnv(env, set[0]), false},
		{"perNode", func(n *plan.Node) ([4]float64, bool) { v, ok := perNode[n]; return v, ok }, true},
	} {
		t.Run(src.name, func(t *testing.T) {
			plans := set
			if src.perNode {
				plans = set[:len(set)-1]
			}
			var f Forest
			e.EncodeForestInto(&f, plans, src.envs)
			wantForestOf(t, e, &f, plans, src.envs)
			if !rowsDistinct(&f) {
				t.Fatal("the forest holds a feature row twice")
			}
			if len(f.Row) >= len(f.order) {
				t.Fatalf("%d entries for %d nodes: pointers the set shares were encoded again", len(f.Row), len(f.order))
			}
			if src.perNode {
				for id, r := range f.Row {
					if r != id {
						t.Fatalf("per-node environments shared a row: entry %d has row %d", id, r)
					}
				}
				return
			}
			if f.Rows() >= len(f.Row)*2/3 {
				t.Fatalf("%d rows for %d entries: the set's common rows were not shared", f.Rows(), len(f.Row))
			}

			// Exactness does not rest on the hash: with every row in one
			// bucket the forest is the same forest, compare by compare.
			var one Forest
			one.tab.oneBucket = true
			e.EncodeForestInto(&one, plans, src.envs)
			if !slices.Equal(one.order, f.order) || !slices.Equal(one.ends, f.ends) || !slices.Equal(one.Row, f.Row) ||
				!slices.Equal(one.Left, f.Left) || !slices.Equal(one.Right, f.Right) || !slices.Equal(one.keys, f.keys) ||
				!slices.Equal(one.keyEnd, f.keyEnd) {
				t.Fatal("a constant bucket hash changed the forest")
			}
		})
	}

	// A literal set: the base (7 nodes, 7 rows); a flipped join operator, a
	// deep clone, is 7 entries over the base's rows but the join's; a changed
	// PartitionsRead adds the scan's row, and its exchange keeps the base
	// exchange's row over another child: one layer-0 class, two entries.
	var f Forest
	e.EncodeForestInto(&f, []*plan.Plan{set[0], set[1], set[4]}, FixedEnv(env))
	if f.Rows() != 9 || len(f.Row) != 21 || len(f.order) != 21 {
		t.Fatalf("literal set: %d rows and %d entries for %d nodes, want 9 and 21 for 21", f.Rows(), len(f.Row), len(f.order))
	}
	if b, p := f.PlanNodes(0), f.PlanNodes(2); f.Row[b[5]] != f.Row[p[5]] || f.Row[b[6]] == f.Row[p[6]] || b[5] == p[5] {
		t.Fatalf("changed scan: entries %v vs %v, want the exchanges two entries on one row over two scan rows", b, p)
	}
	// The same subtree twice in one plan, as two pointers: encoded twice, over
	// the same five rows.
	e.EncodeForestInto(&f, set[5:6], FixedEnv(env))
	if ids := f.PlanNodes(0); ids[2] == ids[5] || f.Row[ids[2]] != f.Row[ids[5]] || f.Rows() != 5 {
		t.Fatalf("repeated subtree: entries %v over %d rows, want two exchange entries on one row and 5", ids, f.Rows())
	}
	// A join re-planned over the base's own exchange subtrees encodes its two
	// nodes and lists the base's exchange entries again.
	e.EncodeForestInto(&f, []*plan.Plan{set[0], set[7]}, FixedEnv(env))
	if a, c := f.PlanNodes(0), f.PlanNodes(1); len(f.Row) != 9 || !slices.Equal(a[2:], c[2:]) || a[1] == c[1] {
		t.Fatalf("shared exchanges: %d entries listed as %v and %v, want 9 and the exchanges' entries twice", len(f.Row), a, c)
	}
	// The memo fires on a plan's own nodes only. The last plan folds, so each
	// of its nodes is a clone and is encoded afresh: its outer exchange pairs
	// with the base's pointer and is looked up on it, the one under the fold
	// is looked up as the clone it is.
	pair, envs := []*plan.Plan{set[0], set[8]}, pointerEnv(env, set[0])
	e.EncodeForestInto(&f, pair, envs)
	wantForestOf(t, e, &f, pair, envs)
	if len(f.Row) != len(f.order) {
		t.Fatalf("folded plan: %d entries for %d nodes, want one each", len(f.Row), len(f.order))
	}
}

// TestEncodeForestTableFullStopsSharing fills the row table for real — more
// distinct rows than it takes — and checks what the guard promises: from
// there on every encoded node is its own layer-0 class, with the same bits,
// the memo still lists a pointer again, and the forest still expands to the
// per-plan encodings. A reused forest starts empty again, also across the
// generation stamp's wrap.
func TestEncodeForestTableFullStopsSharing(t *testing.T) {
	e := enc()
	envs := FixedEnv([4]float64{0.5, 0.5, 0.5, 0.5})
	var filler []*plan.Plan
	for i := 0; i < rowSlots*3/4; i++ {
		filler = append(filler, &plan.Plan{Root: &plan.Node{Op: plan.OpTableScan, Table: "p.t", PartitionsRead: i + 1, ColumnsAccessed: 1}})
	}
	set := explorerStyleSet()
	all := append(append([]*plan.Plan{}, filler...), set...)
	all = append(all, filler[0]) // a pointer the forest holds: listed again, not encoded

	var f Forest
	e.EncodeForestInto(&f, all, envs)
	wantForestOf(t, e, &f, all, envs)
	for id, r := range f.Row {
		if r != id {
			t.Fatalf("full table still shared: entry %d has row %d", id, r)
		}
	}
	if len(f.Row) >= len(f.order) {
		t.Fatalf("full table: %d entries for %d nodes, the memo stopped too", len(f.Row), len(f.order))
	}

	f.tab.gen = math.MaxUint32 // the next reset wraps
	for range 2 {
		e.EncodeForestInto(&f, set, envs)
		wantForestOf(t, e, &f, set, envs)
		if !rowsDistinct(&f) || f.Rows() >= len(f.Row)*2/3 {
			t.Fatalf("reused forest: %d rows for %d entries, sharing lost", f.Rows(), len(f.Row))
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
}

// fillIdents fills e's identifier memo, if its configuration has one, with
// identifiers no test encodes, and returns e.
func fillIdents(e *Encoder) *Encoder {
	for i := 0; e.ids.width >= 0 && len(e.ids.bits) < maxIdents; i++ {
		e.identBits(ident{ref: expr.ColumnRef{Table: "fill", Column: strconv.Itoa(i)}, col: true})
	}
	return e
}

// TestInlineFNVMatchesStdlib pins the inlined FNV-1a helpers to hash/fnv,
// and hashID to denseHashID for every segment count up to 9 and for a
// configuration whose buckets do not pack into a word: on a memo miss, which
// stores, on the hit after it, and on a miss of a full memo, which does not
// store. Identifier hash positions must never move, or every trained model's
// encoding would silently change.
func TestInlineFNVMatchesStdlib(t *testing.T) {
	ids := []string{"", "p.t1", "some.table", "a.very.long.identifier_with_underscores"}
	for _, id := range ids {
		for seed := byte(1); seed <= 9; seed++ {
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
	cfgs := []Config{{Segments: 9, SegmentDim: 256}}
	for segs := 1; segs <= 9; segs++ {
		cfgs = append(cfgs, Config{Segments: segs, SegmentDim: 8})
	}
	for _, cfg := range cfgs {
		e := NewEncoder(cfg)
		if packs := cfg.SegmentDim == 8; packs != (e.ids.width >= 0) {
			t.Fatalf("%+v: bucket width %d", cfg, e.ids.width)
		}
		got := make([]float64, e.Dim())
		want := make([]float64, e.Dim())
		for _, lookup := range []string{"miss", "hit", "full"} {
			asked := ids
			if lookup == "full" {
				fillIdents(e)
				asked = append(slices.Clone(ids), "unseen.table")
			}
			for _, id := range asked {
				expandKey(got, e.hashID(keyWriter{}, e.layout.tableOff, id).key)
				clear(want)
				denseHashID(e, want, e.layout.tableOff, id)
				if !sameBits(got, want) {
					t.Fatalf("%s: hashID(%q) under %+v differs from denseHashID", lookup, id, cfg)
				}
			}
		}
		if stored := len(e.ids.bits); e.ids.width >= 0 && stored != maxIdents || e.ids.width < 0 && stored != 0 {
			t.Fatalf("%+v: memo holds %d identifiers", cfg, stored)
		}
	}
}

// TestHashColMatchesHashID verifies the string-free column hash lands on the
// same bits as hashing c.String(), from the identifier memo and past it.
func TestHashColMatchesHashID(t *testing.T) {
	c := expr.ColumnRef{Table: "proj.orders", Column: "amount"}
	for _, e := range []*Encoder{enc(), fillIdents(enc()), NewEncoder(Config{Segments: 9, SegmentDim: 256})} {
		for range 2 {
			a := e.hashID(keyWriter{}, e.layout.joinColsOff, c.String())
			b := e.hashCol(keyWriter{}, e.layout.joinColsOff, c)
			if !slices.Equal(a.key, b.key) || len(a.key) != e.cfg.Segments {
				t.Fatalf("hashID sets %v, hashCol %v", a.key, b.key)
			}
		}
	}
}

// TestIdentMemoConcurrent: two goroutines encode crossing identifier sets on
// one encoder, one forwards and one backwards, so each reads what the other
// stores and stores what the other reads; every key expands to the oracle's
// row (run under -race).
func TestIdentMemoConcurrent(t *testing.T) {
	e := enc()
	var nodes []*plan.Node
	for i := range 64 {
		tb := "p.t" + strconv.Itoa(i%16)
		col := expr.ColumnRef{Table: tb, Column: "c" + strconv.Itoa(i)}
		nodes = append(nodes,
			&plan.Node{Op: plan.OpTableScan, Table: tb, PartitionsRead: i},
			&plan.Node{Op: plan.OpHashJoin, JoinForm: plan.JoinInner, LeftCols: []expr.ColumnRef{col}, RightCols: []expr.ColumnRef{{Table: tb, Column: "k"}}},
			&plan.Node{Op: plan.OpHashAggregate, AggCols: []expr.ColumnRef{col}, GroupCols: []expr.ColumnRef{{Table: "p.t0", Column: "g" + strconv.Itoa(i)}}})
	}
	want := make([][]float64, len(nodes))
	for i, n := range nodes {
		want[i] = oracleNode(e, n, [4]float64{}, false)
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, e.Dim())
			for j := range nodes {
				i := j
				if g == 1 {
					i = len(nodes) - 1 - j
				}
				expandKey(got, e.AppendNodeKey(nil, nodes[i], [4]float64{}, false))
				if !sameBits(got, want[i]) {
					t.Errorf("goroutine %d: node %d (%v) differs from the oracle", g, i, nodes[i].Op)
					return
				}
			}
		}()
	}
	wg.Wait()
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

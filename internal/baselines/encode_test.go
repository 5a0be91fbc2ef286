package baselines

import (
	"math"
	"slices"
	"testing"

	"loam/internal/encoding"
	"loam/internal/expr"
	"loam/internal/plan"
)

func enc() *encoding.Encoder { return encoding.NewEncoder(encoding.DefaultConfig()) }

// testPlan is an aggregate over a join of a filtered scan and a scan, each
// under an exchange: seven nodes, depths 0 1 2 3 4 2 3 in preorder.
func testPlan() *plan.Plan {
	scanA := &plan.Node{Op: plan.OpTableScan, Table: "p.t1", PartitionsRead: 8, ColumnsAccessed: 3}
	scanB := &plan.Node{Op: plan.OpTableScan, Table: "p.t2", PartitionsRead: 2, ColumnsAccessed: 1}
	filter := &plan.Node{
		Op:       plan.OpFilter,
		Pred:     expr.Compare(expr.FuncLike, expr.ColumnRef{Table: "p.t1", Column: "c1"}, 7),
		Children: []*plan.Node{scanA},
	}
	join := &plan.Node{
		Op: plan.OpHashJoin, JoinForm: plan.JoinInner,
		LeftCols:  []expr.ColumnRef{{Table: "p.t1", Column: "c1"}},
		RightCols: []expr.ColumnRef{{Table: "p.t2", Column: "c2"}},
		Children: []*plan.Node{
			{Op: plan.OpExchange, Children: []*plan.Node{filter}, Parallelism: 64},
			{Op: plan.OpExchange, Children: []*plan.Node{scanB}},
		},
	}
	agg := &plan.Node{
		Op:        plan.OpHashAggregate,
		AggFuncs:  []plan.AggFunc{plan.AggSum, plan.AggCount},
		AggCols:   []expr.ColumnRef{{Table: "p.t1", Column: "c3"}},
		GroupCols: []expr.ColumnRef{{Table: "p.t2", Column: "c2"}},
		Children:  []*plan.Node{join},
	}
	return &plan.Plan{Root: agg}
}

// preorder lists a subtree's nodes in the order the view emits rows.
func preorder(root *plan.Node) []*plan.Node {
	var out []*plan.Node
	root.Walk(func(n *plan.Node) { out = append(out, n) })
	return out
}

// pointerEnv observes exactly the nodes of p — an EnvSource keyed on node
// identity, as RecordEnv's is.
func pointerEnv(env [4]float64, p *plan.Plan) encoding.EnvSource {
	nodes := preorder(p.Root)
	return func(n *plan.Node) ([4]float64, bool) { return env, slices.Contains(nodes, n) }
}

// wantRows checks that feats holds one stride-wide row per node of want: its
// feature row (the encoder's, which internal/encoding holds to its dense
// oracle), environment-observed below index observed and unobserved from
// there on; columns past Dim are the caller's to check.
func wantRows(t *testing.T, e *encoding.Encoder, feats []float64, stride int, env [4]float64, want []*plan.Node, observed int) {
	t.Helper()
	if len(feats) != len(want)*stride {
		t.Fatalf("%d values, want %d rows × %d", len(feats), len(want), stride)
	}
	row := make([]float64, e.Dim())
	for i, n := range want {
		e.EncodeNodeInto(row, n, env, i < observed)
		for j, v := range row {
			if g := feats[i*stride+j]; math.Float64bits(v) != math.Float64bits(g) {
				t.Fatalf("row %d (%v) col %d: %v, want %v", i, n.Op, j, g, v)
			}
		}
	}
}

func TestEncodeGraph(t *testing.T) {
	e := enc()
	p := testPlan()
	var g view
	encodeView(e, &g, p, encoding.NoEnv())
	if g.n != p.Root.Size() || len(g.rows) != g.n*e.Dim() || len(g.edges) != g.n-1 {
		t.Fatalf("graph: %d nodes, %d features, %d edges", g.n, len(g.rows), len(g.edges))
	}
	for _, e2 := range g.edges {
		if e2[0] < 0 || e2[0] >= g.n || e2[1] < 0 || e2[1] >= g.n {
			t.Fatal("edge index out of range")
		}
	}
}

func TestEncodeSequence(t *testing.T) {
	e := enc()
	p := testPlan()
	var v view
	encodeView(e, &v, p, encoding.NoEnv())
	if seqDim(e) != e.Dim()+1 {
		t.Fatal("seqDim wrong")
	}
	if seq := v.tokens(nil, e.Dim()); v.n != p.Root.Size() || len(seq) != v.n*seqDim(e) {
		t.Fatalf("%d tokens, %d features of dim %d", v.n, len(seq), seqDim(e))
	}
}

func TestEncodeFlat(t *testing.T) {
	e := enc()
	p := testPlan()
	var v view
	encodeView(e, &v, p, encoding.NoEnv())
	flat := v.pooled(e.Dim())
	if len(flat) != e.Dim()+1 {
		t.Fatalf("flat dim %d", len(flat))
	}
	// Count features reflect multiplicity: two scans.
	scanFeature := flat[int(plan.OpTableScan)-1]
	if scanFeature != 2 {
		t.Fatalf("flat scan count %g", scanFeature)
	}
	// The environment block is averaged: every node observed under one
	// vector pools to that vector and a flag of 1.
	env := [4]float64{0.2, 0.4, 0.6, 0.8}
	encodeView(e, &v, p, encoding.FixedEnv(env))
	flat = v.pooled(e.Dim())
	got := flat[e.Dim()-5 : e.Dim()]
	for i, want := range []float64{0.2, 0.4, 0.6, 0.8, 1} {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("pooled environment block %v, want %v and the flag", got, env)
		}
	}
}

// TestEncodeGraphFlatMatchesEncodeGraph pins the graph encoder: preorder
// rows, and one (parent, child) edge per child in subtree-completion order.
func TestEncodeGraphFlatMatchesEncodeGraph(t *testing.T) {
	e := enc()
	p := testPlan()
	env := [4]float64{0.2, 0.4, 0.6, 0.8}
	var fg view
	encodeView(e, &fg, p, pointerEnv(env, p))
	wantRows(t, e, fg.rows, e.Dim(), env, preorder(p.Root), fg.n)
	if want := [][2]int{{3, 4}, {2, 3}, {1, 2}, {5, 6}, {1, 5}, {0, 1}}; !slices.Equal(fg.edges, want) {
		t.Fatalf("edges %v, want %v", fg.edges, want)
	}
}

// TestEncodeSequenceFlatMatchesEncodeSequence pins the sequence encoder:
// preorder tokens, each its node's vector plus the log-normalized depth.
func TestEncodeSequenceFlatMatchesEncodeSequence(t *testing.T) {
	e := enc()
	p := testPlan()
	var v view
	encodeView(e, &v, p, encoding.NoEnv())
	seq := v.tokens(nil, e.Dim())
	wantRows(t, e, seq, seqDim(e), [4]float64{}, preorder(p.Root), 0)
	for i, depth := range []float64{0, 1, 2, 3, 4, 2, 3} {
		if got, want := seq[i*seqDim(e)+e.Dim()], plan.LogNorm(depth, 32); got != want {
			t.Fatalf("token %d depth column %v, want %v (depth %v)", i, got, want, depth)
		}
	}
}

// TestFlatEncodersReuseBuffers verifies the view and its tokens stop
// allocating once their buffers have grown to workload size — including
// filter nodes, whose predicates the encoder folds in without allocating.
func TestFlatEncodersReuseBuffers(t *testing.T) {
	e := enc()
	envs := encoding.FixedEnv([4]float64{0.5, 0.5, 0.5, 0.5})
	p := testPlan()
	var v view
	var seq []float64
	encode := func() {
		encodeView(e, &v, p, envs)
		seq = v.tokens(seq, e.Dim())
	}
	encode()
	if allocs := testing.AllocsPerRun(50, encode); allocs != 0 {
		t.Fatalf("warmed encodeView and tokens allocated %.1f/run, want 0", allocs)
	}
}

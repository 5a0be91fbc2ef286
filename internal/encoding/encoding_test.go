package encoding

import (
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"loam/internal/cluster"
	"loam/internal/expr"
	"loam/internal/plan"
)

func enc() *Encoder { return NewEncoder(DefaultConfig()) }

// encodeNode returns one node's feature vector in a fresh slice.
func encodeNode(e *Encoder, n *plan.Node, env [4]float64, hasEnv bool) []float64 {
	v := make([]float64, e.Dim())
	e.EncodeNodeInto(v, n, env, hasEnv)
	return v
}

// oracleNode is encodeNode written by denseNodeInto, the oracle the key
// writer is held to.
func oracleNode(e *Encoder, n *plan.Node, env [4]float64, hasEnv bool) []float64 {
	v := make([]float64, e.Dim())
	denseNodeInto(e, v, n, env, hasEnv)
	return v
}

// denseNodeInto is the dense feature writer AppendNodeKey replaced, kept as
// its oracle: it writes every feature of one node in place into dst, the
// layout's blocks in any order, and knows nothing of keys.
func denseNodeInto(e *Encoder, dst []float64, n *plan.Node, env [4]float64, hasEnv bool) {
	clear(dst)
	if n == nil {
		return
	}
	if op := int(n.Op) - 1; op >= 0 && op < e.layout.opLen {
		dst[e.layout.opOff+op] = 1
	}
	switch {
	case n.Op == plan.OpTableScan:
		denseHashID(e, dst, e.layout.tableOff, n.Table)
		dst[e.layout.scanNumOff] = plan.LogNorm(float64(n.PartitionsRead), e.cfg.MaxPartitions)
		dst[e.layout.scanNumOff+1] = plan.LogNorm(float64(n.ColumnsAccessed), e.cfg.MaxColumns)
	case n.Op.IsJoin():
		if f := int(n.JoinForm) - 1; f >= 0 && f < plan.NumJoinForms {
			dst[e.layout.joinFormOff+f] = 1
		}
		for _, c := range append(slices.Clone(n.LeftCols), n.RightCols...) {
			denseHashID(e, dst, e.layout.joinColsOff, c.String())
		}
	case n.Op.IsAggregate():
		for _, a := range n.AggFuncs {
			if f := int(a) - 1; f >= 0 && f < plan.NumAggFuncs {
				dst[e.layout.aggFnOff+f] = 1
			}
		}
		for _, c := range n.AggCols {
			denseHashID(e, dst, e.layout.aggColsOff, c.String())
		}
		for _, c := range n.GroupCols {
			denseHashID(e, dst, e.layout.groupOff, c.String())
		}
	case n.Op.IsFilterLike():
		for _, fn := range n.Pred.Funcs() {
			if i := int(fn) - 1; i >= 0 && i < expr.NumFuncs {
				dst[e.layout.filterFnOff+i] = 1
			}
		}
		for _, c := range n.Pred.Columns() {
			denseHashID(e, dst, e.layout.filterColsOff, c.String())
		}
		dst[e.layout.predNumOff] = plan.LogNorm(float64(n.Pred.Size()), 64)
	}
	if n.Parallelism > 0 {
		dst[e.layout.dopOff] = plan.LogNorm(float64(n.Parallelism), 256)
	}
	if hasEnv {
		copy(dst[e.layout.envOff:e.layout.envOff+4], env[:])
		dst[e.layout.hasEnvOff] = 1
	}
}

// denseHashID is hashID writing into a dense row.
func denseHashID(e *Encoder, dst []float64, off int, id string) {
	for s := 0; s < e.cfg.Segments; s++ {
		h := fnv.New64a()
		_, _ = h.Write([]byte{byte(s + 1)})
		_, _ = h.Write([]byte(id))
		dst[off+s*e.cfg.SegmentDim+int(avalanche(h.Sum64())%uint64(e.cfg.SegmentDim))] = 1
	}
}

// sameBits reports whether a and b are Float64bits-equal element for
// element: -0 differs from +0 and a NaN equals only itself.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

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

func TestDimConsistency(t *testing.T) {
	e := enc()
	// The layout's last block ends where Dim says a node vector does.
	if e.layout.hasEnvOff+1 != e.Dim() {
		t.Fatalf("layout ends at %d, Dim %d", e.layout.hasEnvOff+1, e.Dim())
	}
	// The environment block and its flag are the last five features, which
	// the XGBoost baseline's pooled vector averages by that position.
	if e.layout.envOff+4 != e.layout.hasEnvOff {
		t.Fatalf("environment block at %d, its flag at %d", e.layout.envOff, e.layout.hasEnvOff)
	}
}

func TestOpOneHot(t *testing.T) {
	e := enc()
	v := encodeNode(e, &plan.Node{Op: plan.OpMergeJoin, JoinForm: plan.JoinInner}, [4]float64{}, false)
	ones := 0
	for i := 0; i < plan.NumOpTypes; i++ {
		if v[i] == 1 {
			ones++
			if i != int(plan.OpMergeJoin)-1 {
				t.Fatalf("one-hot at wrong position %d", i)
			}
		}
	}
	if ones != 1 {
		t.Fatalf("%d bits set in op one-hot", ones)
	}
}

func TestHashSegmentsSetOneBitEach(t *testing.T) {
	e := enc()
	cfg := DefaultConfig()
	n := &plan.Node{Op: plan.OpTableScan, Table: "some.table", PartitionsRead: 1, ColumnsAccessed: 1}
	v := encodeNode(e, n, [4]float64{}, false)
	off := e.layout.tableOff
	for s := 0; s < cfg.Segments; s++ {
		bits := 0
		for j := 0; j < cfg.SegmentDim; j++ {
			if v[off+s*cfg.SegmentDim+j] == 1 {
				bits++
			}
		}
		if bits != 1 {
			t.Fatalf("segment %d has %d bits", s, bits)
		}
	}
}

func TestHashEncodingSeparatesIdentifiers(t *testing.T) {
	// The multi-segment scheme distinguishes far more identifiers than a
	// single segment could (App. B.1): full-signature collisions must be
	// rare (birthday bound ~C(n,2)/8^5), while a single 8-wide segment
	// saturates immediately.
	e := enc()
	signature := func(id string, segments int) string {
		n := &plan.Node{Op: plan.OpTableScan, Table: id, PartitionsRead: 1, ColumnsAccessed: 1}
		v := encodeNode(e, n, [4]float64{}, false)
		sig := ""
		for j := e.layout.tableOff; j < e.layout.tableOff+segments*e.cfg.SegmentDim; j++ {
			if v[j] == 1 {
				sig += string(rune(j))
			}
		}
		return sig
	}
	ids := make([]string, 300)
	for i := range ids {
		ids[i] = "tbl" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	count := func(segments int) int {
		seen := map[string]bool{}
		collisions := 0
		for _, id := range ids {
			sig := signature(id, segments)
			if seen[sig] {
				collisions++
			}
			seen[sig] = true
		}
		return collisions
	}
	multi := count(e.cfg.Segments)
	single := count(1)
	if multi > 10 {
		t.Fatalf("multi-segment collisions too common: %d/300", multi)
	}
	if single <= multi {
		t.Fatalf("multi-segment (%d) not better than single segment (%d)", multi, single)
	}
}

func TestEnvBlock(t *testing.T) {
	e := enc()
	env := [4]float64{0.5, 0.05, 0.4, 0.6}
	n := &plan.Node{Op: plan.OpSort}
	with := encodeNode(e, n, env, true)
	without := encodeNode(e, n, env, false)
	off := e.layout.envOff
	for i := 0; i < 4; i++ {
		if with[off+i] != env[i] {
			t.Fatalf("env feature %d = %g", i, with[off+i])
		}
		if without[off+i] != 0 {
			t.Fatal("env set despite hasEnv=false")
		}
	}
	if with[off+4] != 1 || without[off+4] != 0 {
		t.Fatal("hasEnv indicator wrong")
	}
}

func TestFilterFeatures(t *testing.T) {
	e := enc()
	n := &plan.Node{
		Op: plan.OpFilter,
		Pred: expr.And(
			expr.Compare(expr.FuncLike, expr.ColumnRef{Table: "t", Column: "a"}, 1),
			expr.Compare(expr.FuncEQ, expr.ColumnRef{Table: "t", Column: "b"}, 2),
		),
		Children: []*plan.Node{{Op: plan.OpTableScan, Table: "t"}},
	}
	v := encodeNode(e, n, [4]float64{}, false)
	fnBits := 0
	for i := 0; i < expr.NumFuncs; i++ {
		if v[e.layout.filterFnOff+i] == 1 {
			fnBits++
		}
	}
	if fnBits != 3 { // LIKE, EQ, AND
		t.Fatalf("filter multi-hot bits %d", fnBits)
	}
	if v[e.layout.predNumOff] <= 0 {
		t.Fatal("predicate size feature missing")
	}
}

func TestParallelismFeature(t *testing.T) {
	e := enc()
	plain := encodeNode(e, &plan.Node{Op: plan.OpExchange}, [4]float64{}, false)
	dop := encodeNode(e, &plan.Node{Op: plan.OpExchange, Parallelism: 128}, [4]float64{}, false)
	if plain[e.layout.dopOff] != 0 || dop[e.layout.dopOff] <= 0 {
		t.Fatal("parallelism feature wrong")
	}
}

func TestEncodeTreeMatchesCanonicalSize(t *testing.T) {
	e := enc()
	for _, p := range []*plan.Plan{testPlan(), unionPlan()} {
		var ft FlatTree
		e.EncodeTreeFlatInto(&ft, p, NoEnv())
		if got, want := ft.Len(), p.Root.Canonicalize().Size(); got != want {
			t.Fatalf("tree size %d, want %d", got, want)
		}
		if len(ft.Feats) != ft.Len()*e.Dim() {
			t.Fatal("tree feature dim wrong")
		}
	}
}

func TestRecordEnvAdapter(t *testing.T) {
	m := cluster.Metrics{CPUIdle: 0.4, IOWait: 0.06, Load5: 12, MemUsage: 0.7}
	src := RecordEnv(func(n *plan.Node) (cluster.Metrics, bool) {
		return m, n.Op == plan.OpSort
	})
	env, ok := src(&plan.Node{Op: plan.OpSort})
	if !ok || env != m.Normalized() {
		t.Fatal("record env adapter wrong for known node")
	}
	if _, ok := src(&plan.Node{Op: plan.OpLimit}); ok {
		t.Fatal("record env adapter should miss unknown node")
	}
}

func TestFixedAndNoEnvSources(t *testing.T) {
	env := [4]float64{0.1, 0.2, 0.3, 0.4}
	fixed := FixedEnv(env)
	if got, ok := fixed(nil); !ok || got != env {
		t.Fatal("fixed env wrong")
	}
	if _, ok := NoEnv()(nil); ok {
		t.Fatal("NoEnv should report unobserved")
	}
}

func TestRankerFeatures(t *testing.T) {
	p := testPlan()
	rows := func(table string) float64 {
		if table == "p.t1" {
			return 1e6
		}
		return 1e3
	}
	v := RankerFeatures(p, 50_000, rows)
	if len(v) != RankerDim {
		t.Fatalf("ranker dim %d", len(v))
	}
	for i, x := range v {
		if x < 0 || x > 1 || math.IsNaN(x) {
			t.Fatalf("feature %d = %g out of [0,1]", i, x)
		}
	}
	// Operator count feature present.
	if v[0] <= 0 {
		t.Fatal("op count feature missing")
	}
	// Top table size features: first ≥ second.
	if v[1+48] < v[1+48+1] {
		t.Fatal("table sizes not sorted")
	}
	// Cost feature increases with cost.
	v2 := RankerFeatures(p, 5_000_000, rows)
	if v2[RankerDim-1] <= v[RankerDim-1] {
		t.Fatal("cost feature not monotone")
	}
}

func TestRankerFeaturesProjectAgnostic(t *testing.T) {
	// Renaming tables must not change the features (only sizes and shapes
	// matter) — the property that lets the Ranker transfer across projects.
	build := func(table string) *plan.Plan {
		return &plan.Plan{Root: &plan.Node{
			Op:       plan.OpHashAggregate,
			Children: []*plan.Node{{Op: plan.OpTableScan, Table: table, PartitionsRead: 1, ColumnsAccessed: 1}},
		}}
	}
	rows := func(string) float64 { return 1000 }
	v1 := RankerFeatures(build("projA.table1"), 100, rows)
	v2 := RankerFeatures(build("projB.other"), 100, rows)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("feature %d differs across table names", i)
		}
	}
}

func TestEncodeNodeDeterministic(t *testing.T) {
	e := enc()
	if err := quick.Check(func(op uint8, parts, cols uint8) bool {
		n := &plan.Node{
			Op:              plan.OpType(int(op)%plan.NumOpTypes + 1),
			Table:           "t",
			PartitionsRead:  int(parts),
			ColumnsAccessed: int(cols),
		}
		v1 := encodeNode(e, n, [4]float64{0.5, 0.05, 0.3, 0.4}, true)
		v2 := encodeNode(e, n, [4]float64{0.5, 0.05, 0.3, 0.4}, true)
		return sameBits(v1, v2) && sameBits(v1, oracleNode(e, n, [4]float64{0.5, 0.05, 0.3, 0.4}, true))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

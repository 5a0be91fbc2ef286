package encoding

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"loam/internal/expr"
	"loam/internal/plan"
)

// This file holds the plan encoders the neural backbones read, in training
// and in serving alike: reusable flattened views (FlatTree/FlatGraph/FlatSeq)
// filled in place, one row-major feature matrix per plan instead of one slice
// per node — serving fills a pooled view per call (for the TCN a Forest: a
// whole candidate set, each distinct subtree held once), training one it owns
// until Backward — and EnvKey, the hashable identity of an inference-time
// environment source used to key the plan-embedding cache.
//
// Rows are in preorder. Row order feeds the pooling reductions, so it is part
// of what a trained model's weights mean, not a nicety.

// EnvKey is a hashable fingerprint of an EnvSource whose output does not
// depend on the node — the fixed-vector strategies of §5 (mean-env,
// cluster-expected, cluster-current) and the no-env variant. Zero value
// means "unkeyed": the source has per-node structure (e.g. RecordEnv) and
// embeddings derived from it must not be cached.
type EnvKey struct {
	Sum   uint64
	Keyed bool
}

// Domain-separation tags hashed into EnvKeys. Package-level arrays so key
// construction stays allocation-free on the keyed serving path.
var (
	fixedEnvTag = [1]byte{1}
	noEnvTag    = [1]byte{2}
)

// FixedEnvKey returns the key identifying FixedEnv(env).
func FixedEnvKey(env [4]float64) EnvKey {
	h := fnv.New64a()
	var buf [8]byte
	_, _ = h.Write(fixedEnvTag[:])
	for _, v := range env {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:])
	}
	return EnvKey{Sum: h.Sum64(), Keyed: true}
}

// NoEnvKey returns the key identifying NoEnv().
func NoEnvKey() EnvKey {
	h := fnv.New64a()
	_, _ = h.Write(noEnvTag[:])
	return EnvKey{Sum: h.Sum64(), Keyed: true}
}

// EncodeNodeInto writes one node's feature vector into dst (length Dim, any
// prior contents overwritten). env carries the stage's execution environment;
// hasEnv=false encodes "environment unobserved" (training-time plans always
// have it; the inference strategies of §5 supply synthetic values).
func (e *Encoder) EncodeNodeInto(dst []float64, n *plan.Node, env [4]float64, hasEnv bool) {
	for i := range dst {
		dst[i] = 0
	}
	if n == nil {
		return
	}
	if op := int(n.Op) - 1; op >= 0 && op < e.layout.opLen {
		dst[e.layout.opOff+op] = 1
	}
	switch {
	case n.Op == plan.OpTableScan:
		e.hashID(dst, e.layout.tableOff, n.Table)
		dst[e.layout.scanNumOff] = plan.LogNorm(float64(n.PartitionsRead), e.cfg.MaxPartitions)
		dst[e.layout.scanNumOff+1] = plan.LogNorm(float64(n.ColumnsAccessed), e.cfg.MaxColumns)
	case n.Op.IsJoin():
		if f := int(n.JoinForm) - 1; f >= 0 && f < plan.NumJoinForms {
			dst[e.layout.joinFormOff+f] = 1
		}
		for _, c := range n.LeftCols {
			e.hashCol(dst, e.layout.joinColsOff, c)
		}
		for _, c := range n.RightCols {
			e.hashCol(dst, e.layout.joinColsOff, c)
		}
	case n.Op.IsAggregate():
		for _, a := range n.AggFuncs {
			if f := int(a) - 1; f >= 0 && f < plan.NumAggFuncs {
				dst[e.layout.aggFnOff+f] = 1
			}
		}
		for _, c := range n.AggCols {
			e.hashCol(dst, e.layout.aggColsOff, c)
		}
		for _, c := range n.GroupCols {
			e.hashCol(dst, e.layout.groupOff, c)
		}
	case n.Op.IsFilterLike():
		e.encodePred(dst, n.Pred)
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

// encodePred sets the filter-function multi-hot and filter-column hash bits
// for every node of a predicate tree. It walks the tree directly instead of
// materializing Pred.Funcs()/Pred.Columns(): the features are idempotent bit
// sets, so the dedup and sort those helpers pay for (one map and one slice
// each, per filter node, per encode) buy nothing here, and dropping them
// keeps the serving-path encode allocation-free. The resulting feature
// vector is bit-identical to the slice-based form.
func (e *Encoder) encodePred(dst []float64, n *expr.Node) {
	if n == nil {
		return
	}
	if i := int(n.Fn) - 1; i >= 0 && i < expr.NumFuncs {
		dst[e.layout.filterFnOff+i] = 1
	}
	if n.Fn.IsComparison() {
		e.hashCol(dst, e.layout.filterColsOff, n.Col)
	}
	for _, c := range n.Children {
		e.encodePred(dst, c)
	}
}

// FlatTree is a reusable flattened canonical-binary-tree view: Feats holds
// the n×dim node-feature matrix row-major, and Self/Left/Right carry the
// tree-convolution gather indices (-1 = absent child). All slices are
// retained and reused across EncodeTreeFlatInto calls.
type FlatTree struct {
	Feats             []float64
	Self, Left, Right []int
	dim               int
}

// Len returns the number of encoded nodes.
func (ft *FlatTree) Len() int { return len(ft.Self) }

func (ft *FlatTree) reset(dim int) {
	ft.dim = dim
	ft.Feats = ft.Feats[:0]
	ft.Self = ft.Self[:0]
	ft.Left = ft.Left[:0]
	ft.Right = ft.Right[:0]
}

// appendRow extends feats by one dim-wide row for the caller to overwrite,
// doubling the backing array when full so a reused view stops allocating.
func appendRow(feats []float64, dim int) []float64 {
	n := len(feats)
	if cap(feats) < n+dim {
		grown := make([]float64, n, 2*(n+dim))
		copy(grown, feats)
		feats = grown
	}
	return feats[:n+dim]
}

// addRow appends one node slot and returns its feature row and index.
func (ft *FlatTree) addRow() ([]float64, int) {
	idx := len(ft.Self)
	ft.Feats = appendRow(ft.Feats, ft.dim)
	ft.Self = append(ft.Self, idx)
	ft.Left = append(ft.Left, -1)
	ft.Right = append(ft.Right, -1)
	return ft.Feats[idx*ft.dim:], idx
}

// needsCanon reports whether any node has more than two children, i.e.
// whether Canonicalize would change the tree's structure.
func needsCanon(n *plan.Node) bool {
	if n == nil {
		return false
	}
	if len(n.Children) > 2 {
		return true
	}
	for _, c := range n.Children {
		if needsCanon(c) {
			return true
		}
	}
	return false
}

// EncodeTreeFlatInto fills ft with the canonical-binary-tree encoding of p,
// rows in preorder — the tree convolutional network's input.
func (e *Encoder) EncodeTreeFlatInto(ft *FlatTree, p *plan.Plan, envs EnvSource) {
	ft.reset(e.dim)
	n, orig := canonRoot(p)
	e.encodeTreeFlat(ft, nil, n, orig, envs)
}

// canonRoot returns p's canonical binary root and the original beside it.
// Binary plans (the overwhelmingly common case) skip the clone; when folding
// does clone the tree, environments are looked up on the original nodes for
// as long as the two trees pair structurally.
func canonRoot(p *plan.Plan) (n, orig *plan.Node) {
	if needsCanon(p.Root) {
		return p.Root.Canonicalize(), p.Root
	}
	return p.Root, p.Root
}

// encodeTreeFlat encodes n's subtree. orig is the original plan's node at n's
// position (n itself when nothing was folded), or nil below a folded n-ary
// operator: there the clone is looked up — unobserved, for an identity-keyed source.
// With f non-nil, ft is f's view: the node joins the plan's row list, and a
// subtree the forest already holds gives its row back.
func (e *Encoder) encodeTreeFlat(ft *FlatTree, f *Forest, n, orig *plan.Node, envs EnvSource) int {
	lookup := n
	if orig != nil {
		lookup = orig
	}
	env, ok := envs(lookup)
	row, idx := ft.addRow()
	e.EncodeNodeInto(row, n, env, ok)
	at := 0
	if f != nil {
		at = len(f.order)
		f.order = append(f.order, idx)
	}
	var lo, ro *plan.Node
	if orig != nil && len(orig.Children) == len(n.Children) {
		if len(orig.Children) > 0 {
			lo = orig.Children[0]
		}
		if len(orig.Children) > 1 {
			ro = orig.Children[1]
		}
	}
	if len(n.Children) > 0 {
		li := e.encodeTreeFlat(ft, f, n.Children[0], lo, envs)
		ft.Left[idx] = li
	}
	if len(n.Children) > 1 {
		ri := e.encodeTreeFlat(ft, f, n.Children[1], ro, envs)
		ft.Right[idx] = ri
	}
	if f != nil {
		// Every node below a subtree seen before was seen before too and kept
		// no row, so this node's is still the last: drop it.
		if seen := f.tab.intern(ft, bucketHash(n, ft.Left[idx], ft.Right[idx]), idx); seen != idx {
			ft.Feats = ft.Feats[:idx*ft.dim]
			ft.Self, ft.Left, ft.Right = ft.Self[:idx], ft.Left[:idx], ft.Right[:idx]
			f.order[at], idx = seen, seen
		}
	}
	return idx
}

// Forest is the flattened view of several plans at once — one request's
// candidates — with one row per distinct subtree instead of one per node.
// Candidates differ in a join operator, an order rotation or a pushdown and
// repeat every other subtree, and a node's activation at every
// tree-convolution layer is a function of its subtree's rows alone, so
// convolving each distinct subtree once and pooling each plan over its own
// row list computes exactly what a forward per plan computes.
//
// The embedded FlatTree carries the rows, Self the identity; a plan that
// shares nothing has its rows in EncodeTreeFlatInto's order. Two nodes share
// a row only if their encoded rows are Float64bits-equal and so are both
// child ids — by induction, their whole encoded subtrees. Nothing is
// hash-trusted, and the environment features are in the row, so nodes a
// per-node EnvSource tells apart never share.
type Forest struct {
	FlatTree
	order []int // every plan's preorder list of row ids, back to back
	ends  []int // plan k's list is order[ends[k]:ends[k+1]]
	tab   subtreeTable
}

// PlanRows returns plan k's row ids — one per node, where Len counts distinct
// rows — in the preorder EncodeTreeFlatInto emits its nodes in: the order the
// pooling reductions run in.
func (f *Forest) PlanRows(k int) []int { return f.order[f.ends[k]:f.ends[k+1]] }

// EncodeForestInto fills f with the canonical-binary-tree encodings of plans,
// n-ary operators folded exactly as EncodeTreeFlatInto folds them.
func (e *Encoder) EncodeForestInto(f *Forest, plans []*plan.Plan, envs EnvSource) {
	f.reset(e.dim)
	f.order, f.ends = f.order[:0], append(f.ends[:0], 0)
	f.tab.reset()
	for _, p := range plans {
		n, orig := canonRoot(p)
		e.encodeTreeFlat(&f.FlatTree, f, n, orig, envs)
		f.ends = append(f.ends, len(f.order))
	}
}

// bucketHash picks a node's bucket from a few cheap fields and the child ids.
// It only has to spread: equality is decided on the encoded rows, so nodes
// that differ elsewhere (join columns, predicates) cost one row compare.
func bucketHash(n *plan.Node, left, right int) uint64 {
	h := fnvOffset64
	for _, v := range [6]int{int(n.Op), n.PartitionsRead, int(n.JoinForm), n.Parallelism, left, right} {
		h = (h ^ uint64(v)) * fnvPrime64
	}
	return avalanche(fnvString(h, n.Table))
}

// subtreeSlots sizes the subtree table: several times the rows of any
// request the explorers build (≈ 70 default, a few hundred wide).
const subtreeSlots = 1024

// subtreeTable is the open-addressed index from bucket hash to the row that
// first held a subtree: fixed arrays in a pooled Forest, emptied by bumping a
// generation stamp, so interning never allocates. Three-quarters full it stops
// taking rows and later subtrees get a row each: sharing is lost, not exactness.
type subtreeTable struct {
	gens [subtreeSlots]uint32 // slot i is occupied when gens[i] == gen
	rows [subtreeSlots]int32
	gen  uint32
	used int

	oneBucket bool // test hook: every node goes to bucket 0
}

func (t *subtreeTable) reset() {
	t.used = 0
	t.gen++
	if t.gen == 0 { // stamps from before the wrap could read as current
		t.gens = [subtreeSlots]uint32{}
		t.gen = 1
	}
}

// intern returns the earlier row of ft equal to row id — same feature bits,
// same child ids — or records id under hash and returns it.
func (t *subtreeTable) intern(ft *FlatTree, hash uint64, id int) int {
	if t.used >= subtreeSlots*3/4 {
		return id
	}
	if t.oneBucket {
		hash = 0
	}
	row := ft.Feats[id*ft.dim : (id+1)*ft.dim]
	for i := hash % subtreeSlots; ; i = (i + 1) % subtreeSlots {
		if t.gens[i] != t.gen {
			t.gens[i], t.rows[i] = t.gen, int32(id)
			t.used++
			return id
		}
		r := int(t.rows[i])
		if ft.Left[r] == ft.Left[id] && ft.Right[r] == ft.Right[id] && sameBits(ft.Feats[r*ft.dim:(r+1)*ft.dim], row) {
			return r
		}
	}
}

// sameBits reports whether a and b (equal lengths) are Float64bits-equal
// element for element: -0 differs from +0 and a NaN equals only itself.
func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FlatGraph is a reusable node-feature + edge-list view, the GCN backbone's
// input.
type FlatGraph struct {
	Feats []float64 // n×dim row-major
	Edges [][2]int  // (parent, child) index pairs
	dim   int
	n     int
}

// Len returns the number of encoded nodes.
func (fg *FlatGraph) Len() int { return fg.n }

// EncodeGraphFlatInto fills fg with the graph encoding of p: nodes in preorder,
// one (parent, child) edge per child, emitted as the child's subtree completes.
func (e *Encoder) EncodeGraphFlatInto(fg *FlatGraph, p *plan.Plan, envs EnvSource) {
	fg.dim = e.dim
	fg.Feats = fg.Feats[:0]
	fg.Edges = fg.Edges[:0]
	fg.n = 0
	e.encodeGraphFlat(fg, p.Root, envs)
}

func (e *Encoder) encodeGraphFlat(fg *FlatGraph, n *plan.Node, envs EnvSource) int {
	env, ok := envs(n)
	idx := fg.n
	fg.n++
	fg.Feats = appendRow(fg.Feats, fg.dim)
	e.EncodeNodeInto(fg.Feats[idx*fg.dim:], n, env, ok)
	for _, c := range n.Children {
		ci := e.encodeGraphFlat(fg, c, envs)
		fg.Edges = append(fg.Edges, [2]int{idx, ci})
	}
	return idx
}

// FlatSeq is a reusable preorder-sequence view (dim+1 features per token,
// the extra column being the depth scalar), the Transformer backbone's input.
type FlatSeq struct {
	Feats []float64 // n×(dim+1) row-major
	dim   int       // per-token dimension (e.dim + 1)
	n     int
}

// Len returns the number of encoded tokens.
func (fs *FlatSeq) Len() int { return fs.n }

// EncodeSequenceFlatInto fills fs with the preorder token sequence of p,
// each token its node's features plus the log-normalized depth.
func (e *Encoder) EncodeSequenceFlatInto(fs *FlatSeq, p *plan.Plan, envs EnvSource) {
	fs.dim = e.dim + 1
	fs.Feats = fs.Feats[:0]
	fs.n = 0
	e.encodeSeqFlat(fs, p.Root, 0, envs)
}

func (e *Encoder) encodeSeqFlat(fs *FlatSeq, n *plan.Node, depth int, envs EnvSource) {
	env, ok := envs(n)
	fs.Feats = appendRow(fs.Feats, fs.dim)
	row := fs.Feats[fs.n*fs.dim:]
	fs.n++
	e.EncodeNodeInto(row[:e.dim], n, env, ok)
	row[e.dim] = plan.LogNorm(float64(depth), 32)
	for _, c := range n.Children {
		e.encodeSeqFlat(fs, c, depth+1, envs)
	}
}

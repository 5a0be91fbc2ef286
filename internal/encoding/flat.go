package encoding

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"

	"loam/internal/expr"
	"loam/internal/plan"
)

// This file holds the plan encoders the neural backbones read, in training
// and in serving alike: reusable flattened views (FlatTree/FlatGraph/FlatSeq)
// filled in place, one row-major feature matrix per plan instead of one slice
// per node — serving fills a pooled view per call (for the TCN a Forest: a
// whole candidate set, each distinct feature row, as its sparse key, and each
// node pointer held once), training one it owns
// until Backward — and EnvKey, the hashable identity of an inference-time
// environment source used to key the predictor's plan cache.
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

// AppendNodeKey appends one node's feature row to key in its sparse form,
// the one feature writer: every nonzero feature once, columns ascending, a
// feature equal to 1 as the word col<<1|1, any other as col<<1 then its
// Float64bits, high word first (+0 is left out; -0 and NaN are not). Two
// rows are Float64bits-equal iff their keys are equal word for word. env is
// the stage's execution environment; hasEnv=false encodes "unobserved".
func (e *Encoder) AppendNodeKey(key []uint32, n *plan.Node, env [4]float64, hasEnv bool) []uint32 {
	if n == nil {
		return key
	}
	w := keyWriter{key: key, run: len(key)}
	if op := int(n.Op) - 1; op >= 0 && op < e.layout.opLen {
		w = w.one(e.layout.opOff + op)
	}
	switch {
	case n.Op == plan.OpTableScan:
		w = e.hashID(w, e.layout.tableOff, n.Table)
		w = w.num(e.layout.scanNumOff, plan.LogNorm(float64(n.PartitionsRead), e.cfg.MaxPartitions))
		w = w.num(e.layout.scanNumOff+1, plan.LogNorm(float64(n.ColumnsAccessed), e.cfg.MaxColumns))
	case n.Op.IsJoin():
		if f := int(n.JoinForm) - 1; f >= 0 && f < plan.NumJoinForms {
			w = w.one(e.layout.joinFormOff + f)
		}
		for _, c := range n.LeftCols {
			w = e.hashCol(w, e.layout.joinColsOff, c)
		}
		for _, c := range n.RightCols {
			w = e.hashCol(w, e.layout.joinColsOff, c)
		}
	case n.Op.IsAggregate():
		for _, a := range n.AggFuncs {
			if f := int(a) - 1; f >= 0 && f < plan.NumAggFuncs {
				w = w.one(e.layout.aggFnOff + f)
			}
		}
		for _, c := range n.AggCols {
			w = e.hashCol(w, e.layout.aggColsOff, c)
		}
		for _, c := range n.GroupCols {
			w = e.hashCol(w, e.layout.groupOff, c)
		}
	case n.Op.IsFilterLike():
		w = e.encodePred(w, n.Pred)
		w = w.num(e.layout.predNumOff, plan.LogNorm(float64(n.Pred.Size()), 64))
	}
	if n.Parallelism > 0 {
		w = w.num(e.layout.dopOff, plan.LogNorm(float64(n.Parallelism), 256))
	}
	if hasEnv {
		for i, v := range env {
			w = w.num(e.layout.envOff+i, v)
		}
		w = w.one(e.layout.hasEnvOff)
	}
	return w.key
}

// keyWriter builds one row's key. The encoder writes the layout's blocks in
// column order, so a numeric feature lands in place; ones (hash bits,
// multi-hots) come in any order, with repeats, and are inserted sorted and
// unique into the run since the last numeric feature. Passed by value, it
// leaves a key buffer on the caller's stack there.
type keyWriter struct {
	key []uint32
	run int // key[run:] is the current run of one-words
}

func (w keyWriter) one(col int) keyWriter {
	c := uint32(col)<<1 | 1
	i := len(w.key)
	if i == w.run || w.key[i-1] < c {
		w.key = append(w.key, c)
		return w
	}
	for i > w.run && w.key[i-1] > c {
		i--
	}
	if i == w.run || w.key[i-1] != c {
		w.key = slices.Insert(w.key, i, c)
	}
	return w
}

func (w keyWriter) num(col int, v float64) keyWriter {
	switch b := math.Float64bits(v); b {
	case 0:
	case math.Float64bits(1):
		w = w.one(col)
	default:
		w.key = append(w.key, uint32(col)<<1, uint32(b>>32), uint32(b))
		w.run = len(w.key)
	}
	return w
}

// expandKey writes the row key encodes into dst, every other element +0.
func expandKey(dst []float64, key []uint32) {
	clear(dst)
	for i := 0; i < len(key); i++ {
		if col := key[i] >> 1; key[i]&1 == 1 {
			dst[col] = 1
		} else {
			dst[col] = math.Float64frombits(uint64(key[i+1])<<32 | uint64(key[i+2]))
			i += 2
		}
	}
}

// KeyHash spreads a key (a row's, or any list of words) over a table. It
// only picks where to look: keys are compared word for word.
func KeyHash(key []uint32) uint64 {
	h := uint64(len(key)) * 0x9e3779b97f4a7c15
	for _, w := range key {
		h = (h ^ uint64(w)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// EncodeNodeInto writes one node's feature vector into dst (length Dim, any
// prior contents overwritten): its key (AppendNodeKey), expanded.
func (e *Encoder) EncodeNodeInto(dst []float64, n *plan.Node, env [4]float64, hasEnv bool) {
	var buf [256]uint32
	expandKey(dst, e.AppendNodeKey(buf[:0], n, env, hasEnv))
}

// encodePred sets the filter-function multi-hot and filter-column hash bits
// for every node of a predicate tree. It walks the tree directly instead of
// materializing Pred.Funcs()/Pred.Columns(), whose dedup and sort buy
// nothing for idempotent bits, so the serving-path encode allocates nothing.
func (e *Encoder) encodePred(w keyWriter, n *expr.Node) keyWriter {
	if n == nil {
		return w
	}
	if i := int(n.Fn) - 1; i >= 0 && i < expr.NumFuncs {
		w = w.one(e.layout.filterFnOff + i)
	}
	if n.Fn.IsComparison() {
		w = e.hashCol(w, e.layout.filterColsOff, n.Col)
	}
	for _, c := range n.Children {
		w = e.encodePred(w, c)
	}
	return w
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
	e.encodeTreeFlat(ft, n, orig, envs)
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

// encodeTreeFlat encodes n's subtree and returns its row.
func (e *Encoder) encodeTreeFlat(ft *FlatTree, n, orig *plan.Node, envs EnvSource) int {
	env, ok := envs(lookupNode(n, orig))
	row, idx := ft.addRow()
	e.EncodeNodeInto(row, n, env, ok)
	lo, ro := pairChildren(n, orig)
	if len(n.Children) > 0 {
		li := e.encodeTreeFlat(ft, n.Children[0], lo, envs)
		ft.Left[idx] = li
	}
	if len(n.Children) > 1 {
		ri := e.encodeTreeFlat(ft, n.Children[1], ro, envs)
		ft.Right[idx] = ri
	}
	return idx
}

// lookupNode is the node n's environment is looked up on. orig is the
// original plan's node at n's position (n itself when nothing was folded), or
// nil below a folded n-ary operator: there the clone is looked up —
// unobserved, for an identity-keyed source.
func lookupNode(n, orig *plan.Node) *plan.Node {
	if orig != nil {
		return orig
	}
	return n
}

// pairChildren returns the original nodes at the positions of n's two
// children: orig's own while the two trees pair structurally, nil from a
// folded n-ary operator down.
func pairChildren(n, orig *plan.Node) (lo, ro *plan.Node) {
	if orig == nil || len(orig.Children) != len(n.Children) {
		return nil, nil
	}
	if len(orig.Children) > 0 {
		lo = orig.Children[0]
	}
	if len(orig.Children) > 1 {
		ro = orig.Children[1]
	}
	return lo, ro
}

// Forest is the flattened view of several plans at once — one request's
// candidates, which differ in a join operator, an order rotation or a
// pushdown and repeat the rest, most of it as the very same scan subplans.
//
// Each distinct feature row is held once, as its key (AppendNodeKey): a
// node's layer-0 class is the first row with an equal key. Dense expands the
// rows where a forward runs. An entry is one encoded node — Row its feature
// row, Left and Right its children's entries (-1 absent) — and each plan
// lists its nodes' entries in the preorder EncodeTreeFlatInto emits, the
// order the pooling reductions run in. A node pointer met again outside a
// folded n-ary operator, under the same environment source, is not encoded
// again: its subtree's entries are listed once more. That is exact because
// AppendNodeKey and the EnvSource are pure functions of the node, and every
// node below a plan's own node is the plan's own too. The TCN interns
// classes per layer over the entries (internal/predictor).
//
// Nothing is hash-trusted, and the environment features are in the row, so
// nodes a per-node EnvSource tells apart never share a row. After
// EncodeForestInto returns, the Forest holds no plan node.
type Forest struct {
	Row, Left, Right []int

	keys   []uint32  // every row's key, back to back
	keyEnd []int     // row r's key ends at keys[keyEnd[r]], starts where r-1's ends
	hash   []uint64  // row r's KeyHash
	feats  []float64 // Dense's rows
	span   [][2]int  // entry e's subtree is listed at order[span[e][0]:span[e][1]]
	order  []int     // every plan's preorder list of entries, back to back
	ends   []int     // plan k's list is order[ends[k]:ends[k+1]]
	memo   map[*plan.Node]int
	tab    rowTable
	dim    int
}

// Rows returns the number of distinct feature rows, the layer-0 classes.
func (f *Forest) Rows() int { return len(f.keyEnd) }

// RowKey returns row r's key and its KeyHash.
func (f *Forest) RowKey(r int) ([]uint32, uint64) { return f.key(r), f.hash[r] }

func (f *Forest) key(r int) []uint32 {
	lo := 0
	if r > 0 {
		lo = f.keyEnd[r-1]
	}
	return f.keys[lo:f.keyEnd[r]]
}

// Dense returns the rows expanded, Rows()×Dim row-major, in a buffer the
// forest reuses.
func (f *Forest) Dense() []float64 {
	n := f.Rows() * f.dim
	f.feats = slices.Grow(f.feats[:0], n)[:n]
	for r := range f.Rows() {
		expandKey(f.feats[r*f.dim:(r+1)*f.dim], f.key(r))
	}
	return f.feats
}

// PlanNodes returns plan k's entries, one per node, in preorder.
func (f *Forest) PlanNodes(k int) []int { return f.order[f.ends[k]:f.ends[k+1]] }

// Nodes returns every plan's entries, plan after plan: PlanNodes(0),
// PlanNodes(1), and so on, back to back.
func (f *Forest) Nodes() []int { return f.order }

// SubtreeLen returns the number of nodes entry e's subtree lists: in a plan's
// preorder the node at position p has its left child at p+1 and its right
// child at p+1+SubtreeLen(Left[entry]).
func (f *Forest) SubtreeLen(e int) int { return f.span[e][1] - f.span[e][0] }

// EncodeForestInto fills f with the canonical-binary-tree encodings of plans,
// n-ary operators folded exactly as EncodeTreeFlatInto folds them.
func (e *Encoder) EncodeForestInto(f *Forest, plans []*plan.Plan, envs EnvSource) {
	e.StartForest(f)
	e.AppendForest(f, plans, envs)
}

// StartForest empties f for AppendForest.
func (e *Encoder) StartForest(f *Forest) {
	f.dim = e.dim
	f.keys, f.keyEnd, f.hash = f.keys[:0], f.keyEnd[:0], f.hash[:0]
	f.Row, f.Left, f.Right = f.Row[:0], f.Left[:0], f.Right[:0]
	f.span, f.order, f.ends = f.span[:0], f.order[:0], append(f.ends[:0], 0)
	f.tab.reset()
}

// AppendForest adds plans to f after the plans it holds, every node's
// environment from envs. Rows are shared across calls, since equality is
// decided on the keys; the pointer memo is not: it spans one call, because
// a node met again under another source may encode otherwise. A training
// minibatch, whose default plans each carry their own RecordEnv, is one call
// per source.
func (e *Encoder) AppendForest(f *Forest, plans []*plan.Plan, envs EnvSource) {
	if f.memo == nil {
		f.memo = map[*plan.Node]int{}
	}
	defer clear(f.memo)
	for _, p := range plans {
		n, orig := canonRoot(p)
		e.encodeForest(f, n, orig, envs)
		f.ends = append(f.ends, len(f.order))
	}
}

// encodeForest lists n's subtree in f and returns n's entry.
func (e *Encoder) encodeForest(f *Forest, n, orig *plan.Node, envs EnvSource) int {
	own := orig == n
	if own {
		if id, ok := f.memo[n]; ok {
			s := f.span[id]
			f.order = append(f.order, f.order[s[0]:s[1]]...)
			return id
		}
	}
	env, ok := envs(lookupNode(n, orig))
	id := len(f.Row)
	f.Row = append(f.Row, f.internRow(e, n, env, ok))
	f.Left, f.Right = append(f.Left, -1), append(f.Right, -1)
	f.span = append(f.span, [2]int{len(f.order), 0})
	f.order = append(f.order, id)
	lo, ro := pairChildren(n, orig)
	if len(n.Children) > 0 {
		li := e.encodeForest(f, n.Children[0], lo, envs)
		f.Left[id] = li
	}
	if len(n.Children) > 1 {
		ri := e.encodeForest(f, n.Children[1], ro, envs)
		f.Right[id] = ri
	}
	f.span[id][1] = len(f.order)
	if own {
		f.memo[n] = id
	}
	return id
}

// internRow writes n's key past the end of keys and returns the first row
// with an equal key, taking the new one back if it repeats one.
func (f *Forest) internRow(e *Encoder, n *plan.Node, env [4]float64, ok bool) int {
	id, lo := f.Rows(), len(f.keys)
	f.keys = e.AppendNodeKey(f.keys, n, env, ok)
	key := f.keys[lo:]
	h := KeyHash(key)
	if seen := f.tab.intern(f, key, h, id); seen != id {
		f.keys = f.keys[:lo]
		return seen
	}
	f.keyEnd, f.hash = append(f.keyEnd, len(f.keys)), append(f.hash, h)
	return id
}

// rowSlots sizes the row table: several times the distinct feature rows of
// any request the explorers build.
const rowSlots = 1024

// rowTable is the open-addressed index from key hash to the first of each
// distinct feature row: fixed arrays in a pooled Forest, emptied by bumping a
// generation stamp, so interning never allocates. Three-quarters full it stops
// taking rows and every later row is its own: sharing is lost, not exactness.
type rowTable struct {
	gens [rowSlots]uint32 // slot i is occupied when gens[i] == gen
	rows [rowSlots]int32
	gen  uint32
	used int

	oneBucket bool // test hook: every row goes to bucket 0
}

func (t *rowTable) reset() {
	t.used = 0
	t.gen++
	if t.gen == 0 { // stamps from before the wrap could read as current
		t.gens = [rowSlots]uint32{}
		t.gen = 1
	}
}

// intern returns the row of f whose key equals key, or records id, the row
// key is about to become, under hash and returns it.
func (t *rowTable) intern(f *Forest, key []uint32, hash uint64, id int) int {
	if t.used >= rowSlots*3/4 {
		return id
	}
	if t.oneBucket {
		hash = 0
	}
	for i := hash % rowSlots; ; i = (i + 1) % rowSlots {
		if t.gens[i] != t.gen {
			t.gens[i], t.rows[i] = t.gen, int32(id)
			t.used++
			return id
		}
		if r := int(t.rows[i]); slices.Equal(f.key(r), key) {
			return r
		}
	}
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

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
// per node — serving fills a pooled view per call, training one it owns until
// Backward — and EnvKey, the hashable identity of an inference-time
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
// rows in preorder — the tree convolutional network's input. Plans that are
// already binary (the overwhelmingly common case) skip the canonicalization
// clone entirely.
func (e *Encoder) EncodeTreeFlatInto(ft *FlatTree, p *plan.Plan, envs EnvSource) {
	ft.reset(e.dim)
	root := p.Root
	if needsCanon(root) {
		// Folding clones the tree, so environments are looked up on the
		// original nodes for as long as the two trees pair structurally.
		e.encodeTreeFlat(ft, root.Canonicalize(), root, envs)
		return
	}
	e.encodeTreeFlat(ft, root, root, envs)
}

// encodeTreeFlat encodes n's subtree. orig is the original plan's node at n's
// position (n itself when nothing was folded), or nil below a folded n-ary
// operator: there the clone is looked up — unobserved, for an identity-keyed source.
func (e *Encoder) encodeTreeFlat(ft *FlatTree, n, orig *plan.Node, envs EnvSource) int {
	lookup := n
	if orig != nil {
		lookup = orig
	}
	env, ok := envs(lookup)
	row, idx := ft.addRow()
	e.EncodeNodeInto(row, n, env, ok)
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
		li := e.encodeTreeFlat(ft, n.Children[0], lo, envs)
		ft.Left[idx] = li
	}
	if len(n.Children) > 1 {
		ri := e.encodeTreeFlat(ft, n.Children[1], ro, envs)
		ft.Right[idx] = ri
	}
	return idx
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

package baselines

import (
	"slices"

	"loam/internal/encoding"
	"loam/internal/plan"
)

// view is the one plan encoding the baselines read: every node's feature
// row (encoding.Encoder.EncodeNodeInto) in preorder, its parent-child edges
// and its depth. The GCN reads the rows and edges, the Transformer the rows
// with their depths as tokens, XGBoost the rows pooled. Row order feeds the
// pooling reductions, so it is part of what trained weights mean.
type view struct {
	rows  []float64 // n×Dim row-major
	edges [][2]int  // (parent, child), emitted as the child's subtree completes
	depth []int
	n     int
}

// encodeView fills v with p's view, reusing v's buffers.
func encodeView(e *encoding.Encoder, v *view, p *plan.Plan, envs encoding.EnvSource) {
	v.rows, v.edges, v.depth, v.n = v.rows[:0], v.edges[:0], v.depth[:0], 0
	v.add(e, p.Root, 0, envs)
}

func (v *view) add(e *encoding.Encoder, n *plan.Node, depth int, envs encoding.EnvSource) int {
	env, ok := envs(n)
	idx, dim := v.n, e.Dim()
	v.n++
	v.rows = slices.Grow(v.rows, dim)[:v.n*dim]
	e.EncodeNodeInto(v.rows[idx*dim:], n, env, ok)
	v.depth = append(v.depth, depth)
	for _, c := range n.Children {
		ci := v.add(e, c, depth+1, envs)
		v.edges = append(v.edges, [2]int{idx, ci})
	}
	return idx
}

// seqDim is the width of a token: a node's features and its depth.
func seqDim(e *encoding.Encoder) int { return e.Dim() + 1 }

// tokens appends to dst[:0] the Transformer's input: each row followed by
// its node's log-normalized depth.
func (v *view) tokens(dst []float64, dim int) []float64 {
	dst = dst[:0]
	for i := range v.n {
		dst = append(dst, v.rows[i*dim:(i+1)*dim]...)
		dst = append(dst, plan.LogNorm(float64(v.depth[i]), 32))
	}
	return dst
}

// pooled sums v's rows element-wise into a single vector of dim+1 values —
// XGBoost's input. Counts rather than binaries preserve multiplicity
// information.
func (v *view) pooled(dim int) []float64 {
	out := make([]float64, dim+1)
	for i := range v.n {
		for j, x := range v.rows[i*dim : (i+1)*dim] {
			out[j] += x
		}
	}
	// Average the environment block — the row's last five features, four
	// values and the observed flag — so it stays in [0,1] whatever the plan's
	// size.
	count := float64(v.n)
	for j := dim - 5; j < dim; j++ {
		out[j] /= count
	}
	out[dim] = plan.LogNorm(count, 256)
	return out
}

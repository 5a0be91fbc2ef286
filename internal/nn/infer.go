package nn

import "math"

// This file is the inference-only forward mode: the kernels serving runs, and
// the layer forwards composed from them. It never builds the autograd graph,
// never allocates Grad buffers, and places every activation in a caller-owned
// Scratch arena, so a warmed-up forward pass performs zero heap allocations.
//
// A served cost is bit-identical to the training-path forward of the same
// weights, so routing PredictCost/SelectPlanKeyed through this path moves no
// seeded experiment result. Most of that holds by construction:
//
//  1. The element-wise, gather and pooling kernels and MatMulInto are the
//     arithmetic of the autograd ops in tensor.go, which call them on their
//     output tensor; there is no second loop to keep in step.
//  2. Four things remain two implementations, each pinned Float64bits-equal
//     by test: the layers' composition of kernels, MaxRowsInto beside MaxRows
//     (which records the argmax its backward needs), MatMulNTInto beside
//     attention's Transpose+MatMul (whose backward shape the trained
//     Transformer weights depend on), and TreeConv.ForwardInfer's fused
//     sparse loop beside the GatherConcat3 → MatMul → AddRow → ReLU training
//     keeps for its backward. For the last two, accumulation order is the
//     rule: a dot product starts at +0, runs p = 0..k-1 ascending and skips
//     a-side zeros exactly like matmulAccum's !ta&&!tb case, so a kernel may
//     tile rows and columns and hold sums in registers, but never split or
//     reorder the reduction.

// Mat is a lightweight row-major matrix view used by the inference fast
// path. It carries no autograd state; Data is typically Scratch-owned and
// only valid until the owning Scratch is reset.
type Mat struct {
	R, C int
	Data []float64
}

// scratchSlabSize is the default arena slab, sized so a typical plan forward
// pass fits in one or two slabs.
const scratchSlabSize = 1 << 14

// Scratch is a slab-based bump allocator for inference activations. A
// Scratch is reused across forward passes via Reset, which makes every
// allocation after warm-up a pointer bump into an existing slab. It is not
// safe for concurrent use; serving code keeps one Scratch per worker (see
// internal/predictor's scratch pool).
type Scratch struct {
	slabs [][]float64
	slab  int // index of the slab currently being filled
	off   int // fill offset within the active slab

	// Sparse working set of TreeConv.ForwardInfer, rebuilt per layer, grown by
	// append: input row r has its nonzeros at nzOff/nzVal[rowEnd[r]:rowEnd[r+1]]
	// (nzOff: the offset of the column's weight row within one of W's three
	// blocks); catOff/catVal are the list of the output row being computed.
	rowEnd, nzOff, catOff []int
	nzVal, catVal         []float64
}

// Reset recycles every slab; previously returned slices become invalid.
func (s *Scratch) Reset() {
	s.slab, s.off = 0, 0
}

// Floats returns an n-element slice from the arena. The contents are NOT
// zeroed — callers either fully overwrite the result or use FloatsZero.
func (s *Scratch) Floats(n int) []float64 {
	for {
		if s.slab < len(s.slabs) {
			sl := s.slabs[s.slab]
			if s.off+n <= len(sl) {
				out := sl[s.off : s.off+n : s.off+n]
				s.off += n
				return out
			}
			// The tail of this slab is too small; move on. The waste is
			// bounded by one request per slab and vanishes after warm-up.
			s.slab++
			s.off = 0
			continue
		}
		size := scratchSlabSize
		if n > size {
			size = n
		}
		s.slabs = append(s.slabs, make([]float64, size))
	}
}

// FloatsZero is Floats with the result zeroed — for accumulators and
// gather targets that rely on zero initialization.
func (s *Scratch) FloatsZero(n int) []float64 {
	out := s.Floats(n)
	for i := range out {
		out[i] = 0
	}
	return out
}

// Mat returns an r×c matrix backed by the arena (contents not zeroed).
func (s *Scratch) Mat(r, c int) Mat { return Mat{R: r, C: c, Data: s.Floats(r * c)} }

// MatZero is Mat with zeroed contents.
func (s *Scratch) MatZero(r, c int) Mat { return Mat{R: r, C: c, Data: s.FloatsZero(r * c)} }

// inferBlock tiles the row/column loops of the NT kernel for cache locality.
// The reduction (k) dimension is deliberately never tiled: splitting it would
// reorder floating-point accumulation and break bit-exactness with the
// autograd kernels.
const inferBlock = 48

// MatMulNTInto computes dst = a @ b^T where a is n×k and bt is the
// row-major m×k transpose of b. Each output element is a full-length dot
// product over p ascending that skips a-side zeros, making it bit-identical
// to matmulAccum's !ta&&!tb case on the untransposed operands. Use it when
// the transposed layout is what you already have (attention reads k directly
// as the transposed operand); for sparse left operands prefer MatMulInto,
// whose row-level zero skip does k zero-checks per output row instead of
// this kernel's k×m.
func MatMulNTInto(dst, a, bt []float64, n, k, m int) {
	for i0 := 0; i0 < n; i0 += inferBlock {
		i1 := i0 + inferBlock
		if i1 > n {
			i1 = n
		}
		for j0 := 0; j0 < m; j0 += inferBlock {
			j1 := j0 + inferBlock
			if j1 > m {
				j1 = m
			}
			for i := i0; i < i1; i++ {
				arow := a[i*k : (i+1)*k]
				drow := dst[i*m : (i+1)*m]
				for j := j0; j < j1; j++ {
					brow := bt[j*k : (j+1)*k]
					s := 0.0
					for p, av := range arow {
						if av == 0 {
							continue
						}
						s += av * brow[p]
					}
					drow[j] = s
				}
			}
		}
	}
}

// MatMulInto computes dst = a @ b for row-major a (n×k) and b (k×m), using
// the same zero-skipping kernel as the autograd MatMul.
func MatMulInto(dst, a, b []float64, n, k, m int) {
	matmulInto(dst, a, b, n, k, m, false, false)
}

// ForwardInfer applies the layer to x (n×in) inside the scratch arena. It
// deliberately uses the training-shaped axpy kernel rather than a
// transposed-weight NT kernel: plan encodings (and ReLU activations) are
// mostly zeros, and the axpy kernel skips a whole row of multiplies per zero
// input element where an NT dot product would re-test that zero once per
// output column. On the sparse serving inputs that is the difference between
// the inference forward beating the autograd forward and trailing it.
func (l *Linear) ForwardInfer(s *Scratch, x Mat) Mat {
	out := s.Mat(x.R, l.W.C)
	MatMulInto(out.Data, x.Data, l.W.Data, x.R, x.C, l.W.C)
	AddRowInPlace(out, l.B.Data)
	return out
}

// AddRowInPlace adds the C-element row to every row of m — the bias step.
func AddRowInPlace(m Mat, row []float64) {
	for i := 0; i < m.R; i++ {
		mr := m.Data[i*m.C : (i+1)*m.C]
		for j := range mr {
			mr[j] += row[j]
		}
	}
}

// ReLUInPlace applies max(0, x) element-wise; anything not above zero (NaN
// included) becomes +0.
func ReLUInPlace(m Mat) {
	for i, v := range m.Data {
		m.Data[i] = relu(v)
	}
}

// relu is the one rule both ReLU forms apply per element.
func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// ScaleInPlace multiplies every element by s.
func ScaleInPlace(m Mat, s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddInto computes dst = a + b element-wise (all same shape).
func AddInto(dst, a, b Mat) {
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SoftmaxRowsInPlace applies a row-wise softmax (max-shift, exp, accumulate,
// divide).
func SoftmaxRowsInPlace(m Mat) {
	for i := 0; i < m.R; i++ {
		row := m.Data[i*m.C : (i+1)*m.C]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			row[j] = math.Exp(v - maxV)
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// GatherRowsInto copies x's rows selected by idx into dst's rows at column
// offset dstOff, skipping index -1 (that row of dst is left as it was).
func GatherRowsInto(dst Mat, dstOff int, x Mat, idx []int) {
	for i, ix := range idx {
		if ix < 0 {
			continue
		}
		copy(dst.Data[i*dst.C+dstOff:i*dst.C+dstOff+x.C], x.Data[ix*x.C:(ix+1)*x.C])
	}
}

// MeanRowsInto pools an n×C matrix into the C-element dst by averaging rows
// (each element scaled before it is accumulated, rows ascending).
func MeanRowsInto(dst []float64, a Mat) {
	for j := range dst {
		dst[j] = 0
	}
	if a.R == 0 {
		return
	}
	inv := 1 / float64(a.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			dst[j] += a.Data[i*a.C+j] * inv
		}
	}
}

// MaxRowsInto pools an n×C matrix into dst by max over rows.
func MaxRowsInto(dst []float64, a Mat) {
	if a.R == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	for j := 0; j < a.C; j++ {
		best := a.Data[j]
		for i := 1; i < a.R; i++ {
			if v := a.Data[i*a.C+j]; v > best {
				best = v
			}
		}
		dst[j] = best
	}
}

// SumRowsInto pools an n×C matrix into dst by summing rows scaled by s — the
// extensive-quantity pooling used by cost prediction (plan cost is a sum of
// per-operator contributions).
func SumRowsInto(dst []float64, a Mat, s float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			dst[j] += a.Data[i*a.C+j] * s
		}
	}
}

// sparsify rebuilds the sparse view of x for a layer of output width m: each
// row's nonzeros once, columns ascending; NaN kept, -0 dropped, as matmulAccum
// does. Every element is stored and the cursor moves only past a nonzero (any
// bit but the sign set): no unpredictable branch on a ReLU output's zeros.
func (s *Scratch) sparsify(x Mat, m int) {
	s.rowEnd = append(s.rowEnd[:0], 0)
	k := 0
	for r := 0; r < x.R; r++ {
		for len(s.nzOff) < k+x.C { // room for a full row past the cursor
			s.nzOff = append(s.nzOff, 0)
			s.nzVal = append(s.nzVal, 0)
		}
		off, val := s.nzOff[k:k+x.C], s.nzVal[k:k+x.C]
		n := 0
		for c, v := range x.Data[r*x.C : (r+1)*x.C] {
			off[n], val[n] = c*m, v
			if math.Float64bits(v)<<1 != 0 {
				n++
			}
		}
		k += n
		s.rowEnd = append(s.rowEnd, k)
	}
}

// concat3 lists the nonzeros of [x[self]; x[left]; x[right]] in column order,
// each with its weight row's offset in W (one blockLen = C·m block per
// position). A -1 position adds nothing, as its zero block would.
func (s *Scratch) concat3(blockLen, self, left, right int) {
	off, val := s.catOff[:0], s.catVal[:0]
	for pos, r := range [3]int{self, left, right} {
		if r < 0 {
			continue
		}
		base := pos * blockLen
		for k := s.rowEnd[r]; k < s.rowEnd[r+1]; k++ {
			off = append(off, base+s.nzOff[k])
			val = append(val, s.nzVal[k])
		}
	}
	s.catOff, s.catVal = off, val
}

// ForwardInfer applies the tree convolution inside the scratch arena: row i
// of the result is ReLU([x[self[i]]; x[left[i]]; x[right[i]]] @ W + b) — the
// training path's GatherConcat3 → MatMul → AddRow → ReLU as one loop that
// never builds the n×3C gather matrix. The input is scanned for nonzeros once
// per layer, not once per parent reading a row; each output element is summed
// in a register, eight columns of W at a time, and meets bias and ReLU at the
// store. The reduction is the dense one's (the order rule above), so a row of
// x may feed any number of output rows — a forest sharing subtrees — exactly.
func (tc *TreeConv) ForwardInfer(s *Scratch, x Mat, self, left, right []int) Mat {
	w, bias, m := tc.Lin.W.Data, tc.Lin.B.Data, tc.Lin.W.C
	s.sparsify(x, m)
	out := s.Mat(len(self), m)
	for i := range self {
		s.concat3(x.C*m, self[i], left[i], right[i])
		off, val := s.catOff, s.catVal
		o := out.Data[i*m : (i+1)*m]
		j := 0
		for ; j+8 <= m; j += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for k, av := range val {
				b := w[off[k]+j : off[k]+j+8 : off[k]+j+8]
				a0 += av * b[0]
				a1 += av * b[1]
				a2 += av * b[2]
				a3 += av * b[3]
				a4 += av * b[4]
				a5 += av * b[5]
				a6 += av * b[6]
				a7 += av * b[7]
			}
			bj, oj := bias[j:j+8:j+8], o[j:j+8:j+8]
			oj[0] = relu(a0 + bj[0])
			oj[1] = relu(a1 + bj[1])
			oj[2] = relu(a2 + bj[2])
			oj[3] = relu(a3 + bj[3])
			oj[4] = relu(a4 + bj[4])
			oj[5] = relu(a5 + bj[5])
			oj[6] = relu(a6 + bj[6])
			oj[7] = relu(a7 + bj[7])
		}
		for ; j < m; j++ {
			a := 0.0
			for k, av := range val {
				a += av * w[off[k]+j]
			}
			o[j] = relu(a + bias[j])
		}
	}
	return out
}

// ForwardInfer applies the graph convolution inside the scratch arena given
// the normalized adjacency ahat (n×n).
func (g *GCNLayer) ForwardInfer(s *Scratch, ahat, h Mat) Mat {
	ah := s.Mat(ahat.R, h.C)
	MatMulInto(ah.Data, ahat.Data, h.Data, ahat.R, ahat.C, h.C)
	out := g.Lin.ForwardInfer(s, ah)
	ReLUInPlace(out)
	return out
}

// NormalizedAdjacencyInto fills dst (n×n, scratch-backed) with
// Â = D^{-1/2}(A+I)D^{-1/2} using the same arithmetic as
// NormalizedAdjacency.
func NormalizedAdjacencyInto(s *Scratch, n int, edges [][2]int) Mat {
	a := s.MatZero(n, n)
	deg := s.FloatsZero(n)
	fillNormalizedAdjacency(a.Data, deg, n, edges)
	return a
}

// ForwardInfer applies the attention block inside the scratch arena. Unlike
// the autograd Forward it never materializes k^T: the score matmul reads k
// directly as the transposed operand (the satellite fix for the per-call
// Transpose allocation in layers.go).
func (a *Attention) ForwardInfer(s *Scratch, x Mat) Mat {
	q := a.WQ.ForwardInfer(s, x)
	k := a.WK.ForwardInfer(s, x)
	v := a.WV.ForwardInfer(s, x)
	scores := s.Mat(q.R, k.R)
	MatMulNTInto(scores.Data, q.Data, k.Data, q.R, q.C, k.R)
	ScaleInPlace(scores, 1/math.Sqrt(float64(a.dim)))
	SoftmaxRowsInPlace(scores)
	att := s.Mat(scores.R, v.C)
	MatMulInto(att.Data, scores.Data, v.Data, scores.R, scores.C, v.C)
	h := s.Mat(x.R, x.C)
	AddInto(h, x, att)
	ff1 := a.FF1.ForwardInfer(s, h)
	ReLUInPlace(ff1)
	ff := a.FF2.ForwardInfer(s, ff1)
	out := s.Mat(h.R, h.C)
	AddInto(out, h, ff)
	return out
}

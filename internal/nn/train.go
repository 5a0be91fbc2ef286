package nn

// This file is the hand-written backward of a TCN trained as one forest per
// minibatch (internal/predictor): the kernels run over a batch's rows, the
// gradients are added straight into the parameters' Grad, and the caller owns
// every other buffer. The bar is the autograd backward's bits — the weights
// a training run ends with must be Float64bits-equal to the ones per-plan
// autograd graphs produce — so each kernel repeats, element for element, the
// arithmetic of the autograd ops it replaces, and the order it adds in:
//
//   - A parameter's gradient is a sum over rows. The autograd backward adds
//     one plan's rows after another's, in reverse topological order, rows
//     ascending within a plan; a kernel adds its rows in the order it is
//     given them, so the caller lists the plans in that order.
//   - Every other sum starts at +0 and adds its terms in the autograd order,
//     so no -0 appears where the autograd backward has +0.

// AddRowsInto adds each row of m to dst (m.C elements), rows ascending —
// AddRow's bias gradient.
func AddRowsInto(dst []float64, m Mat) {
	for i := 0; i < m.R; i++ {
		mr := m.Data[i*m.C : (i+1)*m.C]
		for j := range mr {
			dst[j] += mr[j]
		}
	}
}

// Backward is the layer's backward over the n rows of x (n×in), dy (n×out)
// being the gradient at its output before any activation: B.Grad and W.Grad
// gain dy's column sums and xᵀ·dy, rows ascending, and dx (n×in) is
// overwritten with dy·Wᵀ — AddRow's and MatMul's backward on the same kernel.
func (l *Linear) Backward(x, dy, dx Mat) {
	AddRowsInto(l.B.Grad, dy)
	matmulAccum(l.W.Grad, x.Data, dy.Data, x.C, x.R, dy.C, true, false)
	matmulInto(dx.Data, dy.Data, l.W.Data, dy.R, dy.C, x.C, false, true)
}

// ReLUBackwardInto writes dst = the gradient at a ReLU's input: 0 + dy where
// the output y is above zero, +0 elsewhere. y > 0 exactly where the input
// was, NaN included, so the output stands in for the input.
func ReLUBackwardInto(dst []float64, y, dy []float64) {
	for i, v := range y {
		g := 0.0
		if v > 0 {
			g += dy[i]
		}
		dst[i] = g
	}
}

// MaxRowsArgInto is MaxRowsInto that also records each column's argmax, the
// first row holding the column's maximum (NaN never replaces a value).
func MaxRowsArgInto(dst []float64, arg []int, a Mat) {
	for j := 0; j < a.C; j++ {
		best := a.Data[j]
		bi := 0
		for i := 1; i < a.R; i++ {
			if v := a.Data[i*a.C+j]; v > best {
				best, bi = v, i
			}
		}
		dst[j] = best
		arg[j] = bi
	}
}

// PoolBackwardInto writes dx (n×C) = the gradient at the n rows pooled into
// [mean; max; sum·s], given the pooled row's gradient g (3C) and the max's
// argmax. Each element gains its terms in the autograd order, the reverse of
// the pooled row's: the sum's, then the max's (argmax row only), then the
// mean's.
func PoolBackwardInto(dx Mat, g []float64, arg []int, s float64) {
	c := dx.C
	gMean, gMax, gSum := g[:c], g[c:2*c], g[2*c:3*c]
	inv := 1 / float64(dx.R)
	for i := 0; i < dx.R; i++ {
		row := dx.Data[i*c : (i+1)*c]
		for j := range row {
			v := 0.0
			v += gSum[j] * s
			if arg[j] == i {
				v += gMax[j]
			}
			v += gMean[j] * inv
			row[j] = v
		}
	}
}

// Backward is the tree convolution's backward over n rows. Row i convolved
// x's rows self[i], left[i] and right[i] (-1 absent), as ForwardInfer's row
// i does; dpre (n×out) is the gradient at each row's pre-activation. s is the
// Scratch ForwardInfer convolved x in: Backward reads the sparse view of x
// that ForwardInfer left there, so nothing may have convolved in s since.
// B.Grad
// and W.Grad gain their terms row by row, rows ascending, over the nonzeros
// of each row's gathered input [x[self]; x[left]; x[right]] — the elements
// MatMul's backward does not skip — so no n×3C gather is built.
//
// When dg is non-nil (n×3C) it receives the gradient at the gathered input,
// dpre·Wᵀ, but only at the gathered elements that are nonzero; the others are
// left as they were. Below a TreeConv the input is a ReLU's output, whose
// gradient counts only where it is above zero — nonzero, for a ReLU output —
// so those are the only elements read. Each is the full dot product over
// out, without skipping zeros, as MatMul's backward computes it.
func (tc *TreeConv) Backward(s *Scratch, x Mat, self, left, right []int, dpre Mat, dg []float64) {
	w, dw, m := tc.Lin.W.Data, tc.Lin.W.Grad, tc.Lin.W.C
	AddRowsInto(tc.Lin.B.Grad, dpre)
	width := 3 * x.C
	for i := range self {
		d := dpre.Data[i*m : (i+1)*m : (i+1)*m]
		s.concat3(x.C*m, self[i], left[i], right[i])
		off, val := s.catOff, s.catVal
		var g []float64
		if dg != nil {
			g = dg[i*width : (i+1)*width]
		}
		// Four of the row's nonzeros at a time: four weight rows' updates
		// and four dot products, each a chain of its own over d.
		k := 0
		for ; k+4 <= len(val); k += 4 {
			o0, o1, o2, o3 := off[k], off[k+1], off[k+2], off[k+3]
			v0, v1, v2, v3 := val[k], val[k+1], val[k+2], val[k+3]
			dw0, dw1, dw2, dw3 := dw[o0:o0+m:o0+m], dw[o1:o1+m:o1+m], dw[o2:o2+m:o2+m], dw[o3:o3+m:o3+m]
			if g == nil {
				for j, dj := range d {
					dw0[j] += v0 * dj
					dw1[j] += v1 * dj
					dw2[j] += v2 * dj
					dw3[j] += v3 * dj
				}
				continue
			}
			w0, w1, w2, w3 := w[o0:o0+m:o0+m], w[o1:o1+m:o1+m], w[o2:o2+m:o2+m], w[o3:o3+m:o3+m]
			var a0, a1, a2, a3 float64
			for j, dj := range d {
				dw0[j] += v0 * dj
				dw1[j] += v1 * dj
				dw2[j] += v2 * dj
				dw3[j] += v3 * dj
				a0 += dj * w0[j]
				a1 += dj * w1[j]
				a2 += dj * w2[j]
				a3 += dj * w3[j]
			}
			g[o0/m], g[o1/m], g[o2/m], g[o3/m] = a0, a1, a2, a3
		}
		for ; k < len(val); k++ {
			o := off[k]
			axpy(dw[o:o+m:o+m], val[k], d)
			if g != nil {
				g[o/m] = dot(d, w[o:o+m:o+m])
			}
		}
	}
}

// axpy adds v·x to dst element-wise.
func axpy(dst []float64, v float64, x []float64) {
	x = x[:len(dst)]
	for j := range dst {
		dst[j] += v * x[j]
	}
}

// dot is Σ a[p]·b[p], p ascending from +0.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for p, v := range a {
		s += v * b[p]
	}
	return s
}

// Package nn is a small, dependency-free neural-network library: a
// reverse-mode autograd engine over dense float64 matrices, the layers LOAM's
// cost-predictor backbones need (linear, tree convolution, graph
// convolution, multi-head self-attention), the gradient reversal layer used
// by the domain-adversarial training (§4), and an Adam optimizer with
// exponential learning-rate decay.
//
// Concurrency: forward passes only read parameter tensors and allocate fresh
// result tensors per operation, so inference over a trained model is safe
// from multiple goroutines. Gradients are written only by Backward and the
// optimizer — training, and anything that mutates parameters, must stay on a
// single goroutine.
package nn

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major matrix participating in the autograd graph.
type Tensor struct {
	R, C int
	Data []float64
	Grad []float64

	requiresGrad bool
	back         func()
	prev         []*Tensor
}

// New allocates a zero tensor that does not require gradients.
func New(r, c int) *Tensor {
	return &Tensor{R: r, C: c, Data: make([]float64, r*c)}
}

// FromData wraps existing data (not copied) as a constant tensor.
func FromData(r, c int, data []float64) *Tensor {
	if len(data) != r*c {
		panic(fmt.Sprintf("nn: FromData shape %dx%d != len %d", r, c, len(data)))
	}
	return &Tensor{R: r, C: c, Data: data}
}

// Param allocates a trainable tensor (requires gradients).
func Param(r, c int) *Tensor {
	t := New(r, c)
	t.requiresGrad = true
	t.Grad = make([]float64, r*c)
	return t
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.C+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.C+j] = v }

// mat views the tensor's values as the inference kernels' matrix type: the
// element-wise, gather and pooling ops below compute their forward through
// those kernels (infer.go), so each arithmetic loop exists once.
func (t *Tensor) mat() Mat { return Mat{R: t.R, C: t.C, Data: t.Data} }

// ensureGrad allocates the gradient buffer lazily.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float64, t.R*t.C)
	}
}

// child creates a result tensor that participates in backprop if any input
// does.
func child(r, c int, prev ...*Tensor) *Tensor {
	out := New(r, c)
	for _, p := range prev {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	out.prev = prev
	if out.requiresGrad {
		out.ensureGrad()
	}
	return out
}

// Backward runs reverse-mode differentiation from t, which must be a 1x1
// scalar (a loss). Gradients accumulate into every upstream tensor that
// requires them.
func (t *Tensor) Backward() {
	if t.R != 1 || t.C != 1 {
		panic("nn: Backward requires a 1x1 scalar")
	}
	// Topological order via iterative DFS.
	var topo []*Tensor
	visited := map[*Tensor]bool{}
	type frame struct {
		t    *Tensor
		next int
	}
	stack := []frame{{t: t}}
	visited[t] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.prev) {
			p := f.t.prev[f.next]
			f.next++
			if !visited[p] && p.requiresGrad {
				visited[p] = true
				stack = append(stack, frame{t: p})
			}
			continue
		}
		topo = append(topo, f.t)
		stack = stack[:len(stack)-1]
	}
	t.ensureGrad()
	t.Grad[0] = 1
	for i := len(topo) - 1; i >= 0; i-- {
		if topo[i].back != nil {
			topo[i].back()
		}
	}
}

// MatMul returns a @ b for a (n×k) and b (k×m).
func MatMul(a, b *Tensor) *Tensor {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: MatMul %dx%d @ %dx%d", a.R, a.C, b.R, b.C))
	}
	out := child(a.R, b.C, a, b)
	matmulInto(out.Data, a.Data, b.Data, a.R, a.C, b.C, false, false)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				a.ensureGrad()
				// dA += dOut @ B^T
				matmulAccum(a.Grad, out.Grad, b.Data, a.R, b.C, a.C, false, true)
			}
			if b.requiresGrad {
				b.ensureGrad()
				// dB += A^T @ dOut
				matmulAccum(b.Grad, a.Data, out.Grad, a.C, a.R, b.C, true, false)
			}
		}
	}
	return out
}

// matmulInto computes dst = op(a) @ op(b) with optional transposes, where
// the logical shapes after transposition are (n×k)@(k×m).
func matmulInto(dst, a, b []float64, n, k, m int, ta, tb bool) {
	for i := range dst {
		dst[i] = 0
	}
	matmulAccum(dst, a, b, n, k, m, ta, tb)
}

// matmulAccum computes dst += op(a) @ op(b). The physical layout of a is
// (n×k) when !ta, (k×n) when ta; similarly b is (k×m) / (m×k).
func matmulAccum(dst, a, b []float64, n, k, m int, ta, tb bool) {
	switch {
	case !ta && !tb:
		for i := 0; i < n; i++ {
			ai := a[i*k : (i+1)*k]
			di := dst[i*m : (i+1)*m]
			for p := 0; p < k; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				bp := b[p*m : (p+1)*m]
				for j := 0; j < m; j++ {
					di[j] += av * bp[j]
				}
			}
		}
	case !ta && tb:
		// a (n×k), b physically (m×k): dst[i,j] += sum_p a[i,p]*b[j,p]
		for i := 0; i < n; i++ {
			ai := a[i*k : (i+1)*k]
			di := dst[i*m : (i+1)*m]
			for j := 0; j < m; j++ {
				bj := b[j*k : (j+1)*k]
				s := 0.0
				for p := 0; p < k; p++ {
					s += ai[p] * bj[p]
				}
				di[j] += s
			}
		}
	case ta && !tb:
		// a physically (k×n), b (k×m): dst[i,j] += sum_p a[p,i]*b[p,j]
		for p := 0; p < k; p++ {
			ap := a[p*n : (p+1)*n]
			bp := b[p*m : (p+1)*m]
			for i := 0; i < n; i++ {
				av := ap[i]
				if av == 0 {
					continue
				}
				di := dst[i*m : (i+1)*m]
				for j := 0; j < m; j++ {
					di[j] += av * bp[j]
				}
			}
		}
	default:
		panic("nn: double-transpose matmul unsupported")
	}
}

// Add returns a + b (same shape).
func Add(a, b *Tensor) *Tensor {
	mustSameShape("Add", a, b)
	out := child(a.R, a.C, a, b)
	AddInto(out.mat(), a.mat(), b.mat())
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i := range a.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i := range b.Grad {
					b.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// AddRow broadcasts a 1×C row vector across an n×C tensor.
func AddRow(a, row *Tensor) *Tensor {
	if row.R != 1 || row.C != a.C {
		panic(fmt.Sprintf("nn: AddRow %dx%d + %dx%d", a.R, a.C, row.R, row.C))
	}
	out := child(a.R, a.C, a, row)
	copy(out.Data, a.Data)
	AddRowInPlace(out.mat(), row.Data)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i := range a.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if row.requiresGrad {
				row.ensureGrad()
				for i := 0; i < a.R; i++ {
					for j := 0; j < a.C; j++ {
						row.Grad[j] += out.Grad[i*a.C+j]
					}
				}
			}
		}
	}
	return out
}

// Scale returns s * a.
func Scale(a *Tensor, s float64) *Tensor {
	out := child(a.R, a.C, a)
	copy(out.Data, a.Data)
	ScaleInPlace(out.mat(), s)
	if out.requiresGrad {
		out.back = func() {
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += s * out.Grad[i]
			}
		}
	}
	return out
}

// ReLU applies max(0, x) element-wise.
func ReLU(a *Tensor) *Tensor {
	out := child(a.R, a.C, a)
	copy(out.Data, a.Data)
	ReLUInPlace(out.mat())
	if out.requiresGrad {
		out.back = func() {
			a.ensureGrad()
			for i, v := range a.Data {
				if v > 0 {
					a.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// ConcatCols concatenates tensors with equal row counts along columns.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		return New(0, 0)
	}
	r := ts[0].R
	c := 0
	for _, t := range ts {
		if t.R != r {
			panic("nn: ConcatCols row mismatch")
		}
		c += t.C
	}
	out := child(r, c, ts...)
	off := 0
	for _, t := range ts {
		for i := 0; i < r; i++ {
			copy(out.Data[i*c+off:i*c+off+t.C], t.Data[i*t.C:(i+1)*t.C])
		}
		off += t.C
	}
	if out.requiresGrad {
		out.back = func() {
			off := 0
			for _, t := range ts {
				if t.requiresGrad {
					t.ensureGrad()
					for i := 0; i < r; i++ {
						for j := 0; j < t.C; j++ {
							t.Grad[i*t.C+j] += out.Grad[i*c+off+j]
						}
					}
				}
				off += t.C
			}
		}
	}
	return out
}

// GatherConcat3 builds, for each row i, [x[self[i]]; x[left[i]]; x[right[i]]]
// (len(self)×3C, zeros for index -1) — the input assembly step of binary tree
// convolution — with the scatter that backpropagates through it.
func GatherConcat3(x *Tensor, self, left, right []int) *Tensor {
	out := child(len(self), 3*x.C, x)
	for pos, idx := range [3][]int{self, left, right} {
		GatherRowsInto(out.mat(), pos*x.C, x.mat(), idx)
	}
	if out.requiresGrad {
		out.back = func() {
			x.ensureGrad()
			scatter := func(srcOff int, idx []int) {
				for i, ix := range idx {
					if ix < 0 {
						continue
					}
					for j := 0; j < x.C; j++ {
						x.Grad[ix*x.C+j] += out.Grad[i*out.C+srcOff+j]
					}
				}
			}
			scatter(0, self)
			scatter(x.C, left)
			scatter(2*x.C, right)
		}
	}
	return out
}

// MeanRows pools an n×C tensor to 1×C by averaging rows.
func MeanRows(a *Tensor) *Tensor {
	out := child(1, a.C, a)
	MeanRowsInto(out.Data, a.mat())
	inv := 1 / float64(a.R) // unused when there are no rows to spread it over
	if out.requiresGrad {
		out.back = func() {
			a.ensureGrad()
			for i := 0; i < a.R; i++ {
				for j := 0; j < a.C; j++ {
					a.Grad[i*a.C+j] += out.Grad[j] * inv
				}
			}
		}
	}
	return out
}

// MaxRows pools an n×C tensor to 1×C by max over rows, in its own loop beside
// MaxRowsInto: backward needs each column's argmax.
func MaxRows(a *Tensor) *Tensor {
	out := child(1, a.C, a)
	if a.R == 0 {
		return out
	}
	argmax := make([]int, a.C)
	for j := 0; j < a.C; j++ {
		best := a.Data[j]
		bi := 0
		for i := 1; i < a.R; i++ {
			if v := a.Data[i*a.C+j]; v > best {
				best, bi = v, i
			}
		}
		out.Data[j] = best
		argmax[j] = bi
	}
	if out.requiresGrad {
		out.back = func() {
			a.ensureGrad()
			for j := 0; j < a.C; j++ {
				a.Grad[argmax[j]*a.C+j] += out.Grad[j]
			}
		}
	}
	return out
}

// ConcatRows stacks tensors with equal column counts along rows.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		return New(0, 0)
	}
	c := ts[0].C
	r := 0
	for _, t := range ts {
		if t.C != c {
			panic("nn: ConcatRows column mismatch")
		}
		r += t.R
	}
	out := child(r, c, ts...)
	off := 0
	for _, t := range ts {
		copy(out.Data[off*c:(off+t.R)*c], t.Data)
		off += t.R
	}
	if out.requiresGrad {
		out.back = func() {
			off := 0
			for _, t := range ts {
				if t.requiresGrad {
					t.ensureGrad()
					for i := range t.Grad {
						t.Grad[i] += out.Grad[off*c+i]
					}
				}
				off += t.R
			}
		}
	}
	return out
}

// GRL is the gradient reversal layer (Ganin & Lempitsky): identity in the
// forward pass; multiplies the gradient by -lambda in the backward pass.
// lambda is read at backward time so a scheduler can anneal it.
func GRL(a *Tensor, lambda *float64) *Tensor {
	out := child(a.R, a.C, a)
	copy(out.Data, a.Data)
	if out.requiresGrad {
		out.back = func() {
			a.ensureGrad()
			l := *lambda
			for i := range a.Grad {
				a.Grad[i] -= l * out.Grad[i]
			}
		}
	}
	return out
}

// MSE returns the mean squared error between pred (n×1) and targets as a
// scalar.
func MSE(pred *Tensor, targets []float64) *Tensor {
	if pred.C != 1 || pred.R != len(targets) {
		panic(fmt.Sprintf("nn: MSE pred %dx%d vs %d targets", pred.R, pred.C, len(targets)))
	}
	out := child(1, 1, pred)
	n := float64(pred.R)
	for i := range targets {
		d := pred.Data[i] - targets[i]
		out.Data[0] += d * d / n
	}
	if out.requiresGrad {
		out.back = func() {
			pred.ensureGrad()
			g := out.Grad[0]
			for i := range targets {
				pred.Grad[i] += 2 * (pred.Data[i] - targets[i]) / n * g
			}
		}
	}
	return out
}

// CrossEntropy returns the mean softmax cross-entropy of logits (n×k)
// against integer labels.
func CrossEntropy(logits *Tensor, labels []int) *Tensor {
	if logits.R != len(labels) {
		panic("nn: CrossEntropy label count mismatch")
	}
	out := child(1, 1, logits)
	n, k := logits.R, logits.C
	probs := make([]float64, n*k)
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			p := math.Exp(v - maxV)
			probs[i*k+j] = p
			sum += p
		}
		for j := 0; j < k; j++ {
			probs[i*k+j] /= sum
		}
		p := probs[i*k+labels[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		out.Data[0] -= math.Log(p) / float64(n)
	}
	if out.requiresGrad {
		out.back = func() {
			logits.ensureGrad()
			g := out.Grad[0] / float64(n)
			for i := 0; i < n; i++ {
				for j := 0; j < k; j++ {
					d := probs[i*k+j]
					if j == labels[i] {
						d -= 1
					}
					logits.Grad[i*k+j] += d * g
				}
			}
		}
	}
	return out
}

// SoftmaxRows applies a row-wise softmax (used by attention).
func SoftmaxRows(a *Tensor) *Tensor {
	out := child(a.R, a.C, a)
	copy(out.Data, a.Data)
	SoftmaxRowsInPlace(out.mat())
	if out.requiresGrad {
		out.back = func() {
			a.ensureGrad()
			for i := 0; i < a.R; i++ {
				orow := out.Data[i*a.C : (i+1)*a.C]
				grow := out.Grad[i*a.C : (i+1)*a.C]
				dot := 0.0
				for j := range orow {
					dot += orow[j] * grow[j]
				}
				for j := range orow {
					a.Grad[i*a.C+j] += orow[j] * (grow[j] - dot)
				}
			}
		}
	}
	return out
}

// AddScalarLoss sums weighted scalar losses: sum_i w_i * l_i.
func AddScalarLoss(weights []float64, losses ...*Tensor) *Tensor {
	out := child(1, 1, losses...)
	for i, l := range losses {
		if l.R != 1 || l.C != 1 {
			panic("nn: AddScalarLoss needs scalars")
		}
		out.Data[0] += weights[i] * l.Data[0]
	}
	if out.requiresGrad {
		out.back = func() {
			for i, l := range losses {
				if l.requiresGrad {
					l.ensureGrad()
					l.Grad[0] += weights[i] * out.Grad[0]
				}
			}
		}
	}
	return out
}

func mustSameShape(op string, a, b *Tensor) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C))
	}
}

// SumRows pools an n×C tensor to 1×C by summing rows, scaled by s.
func SumRows(a *Tensor, s float64) *Tensor {
	out := child(1, a.C, a)
	SumRowsInto(out.Data, a.mat(), s)
	if out.requiresGrad {
		out.back = func() {
			a.ensureGrad()
			for i := 0; i < a.R; i++ {
				for j := 0; j < a.C; j++ {
					a.Grad[i*a.C+j] += out.Grad[j] * s
				}
			}
		}
	}
	return out
}

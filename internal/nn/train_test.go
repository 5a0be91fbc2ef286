package nn

import (
	"fmt"
	"math"
	"testing"

	"loam/internal/simrand"
)

// backwardThrough runs y's autograd backward from a scalar loss whose
// gradient at y is dense and seeded: the MSE of y·v against zeros.
func backwardThrough(rng *simrand.RNG, y *Tensor) {
	v := FromData(y.C, 1, randMat(rng, y.C, 1))
	MSE(MatMul(y, v), make([]float64, y.R)).Backward()
}

// paramOf returns a trainable n×c tensor holding data.
func paramOf(n, c int, data []float64) *Tensor {
	t := Param(n, c)
	copy(t.Data, data)
	return t
}

// takeGrad returns a copy of t's gradient and zeroes it.
func takeGrad(t *Tensor) []float64 {
	g := append([]float64(nil), t.Grad...)
	clear(t.Grad)
	return g
}

// TestTreeConvBackwardMatchesAutograd runs TreeConv.Backward over
// TestTreeConvForwardInferBitIdentical's rows — a row two parents read,
// all-zero rows, −0 inputs, every child absent somewhere, NaN weights — and
// compares it with the autograd backward of TreeConv.Forward: the weight and
// bias gradients bit for bit, and the input gradient, scattered back as
// GatherConcat3's backward scatters it, at every input element that is
// nonzero, the elements Backward promises.
func TestTreeConvBackwardMatchesAutograd(t *testing.T) {
	rng := simrand.New(17)
	const n, in = 9, 10
	self := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	left := []int{1, 3, 3, -1, -1, 7, -1, -1, 8}
	right := []int{2, 4, 6, -1, 5, -1, -1, -1, -1}
	for _, out := range []int{1, 7, 8, 9, 32, 33} {
		for _, nanWeights := range []bool{false, true} {
			name := fmt.Sprintf("out=%d nan=%v", out, nanWeights)
			tc := NewTreeConv(rng.DeriveN("tc", out), in, out)
			InitXavier(rng.DeriveN("bias", out), tc.Lin.B)
			if nanWeights {
				tc.Lin.W.Data[0], tc.Lin.W.Data[(in+3)*out+out-1] = math.NaN(), math.NaN()
			}
			x := randMat(rng, n, in)
			for j := 0; j < in; j++ {
				x[3*in+j], x[7*in+j] = 0, 0
			}
			x[0], x[4*in+2], x[6*in+9] = math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)

			xt := paramOf(n, in, x)
			y := tc.Forward(xt, self, left, right)
			backwardThrough(rng, y)
			wantW, wantB := takeGrad(tc.Lin.W), takeGrad(tc.Lin.B)

			var s Scratch
			tc.ForwardInfer(&s, Mat{R: n, C: in, Data: x}, self, left, right)
			dpre := make([]float64, n*out)
			ReLUBackwardInto(dpre, y.Data, y.Grad)
			dg := make([]float64, n*3*in)
			tc.Backward(&s, Mat{R: n, C: in, Data: x}, self, left, right, Mat{R: n, C: out, Data: dpre}, dg)
			sameBits(t, name+" W.Grad", wantW, tc.Lin.W.Grad)
			sameBits(t, name+" B.Grad", wantB, tc.Lin.B.Grad)

			dx := make([]float64, n*in)
			for pos, idx := range [3][]int{self, left, right} {
				for i, r := range idx {
					for j := 0; r >= 0 && j < in; j++ {
						dx[r*in+j] += dg[i*3*in+pos*in+j]
					}
				}
			}
			for i, v := range x {
				if v != 0 && math.Float64bits(dx[i]) != math.Float64bits(xt.Grad[i]) {
					t.Fatalf("%s: input gradient %d is %v, autograd %v", name, i, dx[i], xt.Grad[i])
				}
			}
		}
	}
}

// TestPoolBackwardMatchesAutograd compares MaxRowsArgInto and
// PoolBackwardInto with the autograd ConcatCols(MeanRows, MaxRows, SumRows)
// the TCN pools through, on rows where a column's maximum repeats (the first
// row takes the gradient) and on a single row.
func TestPoolBackwardMatchesAutograd(t *testing.T) {
	rng := simrand.New(18)
	const c = 13
	for _, n := range []int{9, 1} {
		x := randMat(rng, n, c)
		if n > 2 {
			x[2*c], x[5*c] = 3, 3 // a tie for column 0's maximum
		}
		xt := paramOf(n, c, x)
		mx := MaxRows(xt)
		pooled := ConcatCols(MeanRows(xt), mx, SumRows(xt, 1.0/16))
		backwardThrough(rng, pooled)

		gotMax, arg := make([]float64, c), make([]int, c)
		MaxRowsArgInto(gotMax, arg, Mat{R: n, C: c, Data: x})
		sameBits(t, fmt.Sprintf("n=%d max", n), mx.Data, gotMax)
		if n > 2 && arg[0] != 2 {
			t.Fatalf("tied column 0: argmax %d, want the first row holding it, 2", arg[0])
		}
		dx := Mat{R: n, C: c, Data: make([]float64, n*c)}
		PoolBackwardInto(dx, pooled.Grad, arg, 1.0/16)
		sameBits(t, fmt.Sprintf("n=%d dx", n), xt.Grad, dx.Data)
	}
}

// TestLinearBackwardMatchesAutograd compares Linear.Backward with the
// autograd backward of Linear.Forward over rows with zeros and −0 inputs.
func TestLinearBackwardMatchesAutograd(t *testing.T) {
	rng := simrand.New(19)
	const n, in, out = 5, 12, 7
	l := NewLinear(rng.Derive("lin"), in, out)
	InitXavier(rng.Derive("bias"), l.B)
	x := randMat(rng, n, in)
	x[3] = math.Copysign(0, -1)
	xt := paramOf(n, in, x)
	y := l.Forward(xt)
	backwardThrough(rng, y)
	wantW, wantB := takeGrad(l.W), takeGrad(l.B)

	dx := Mat{R: n, C: in, Data: make([]float64, n*in)}
	l.Backward(Mat{R: n, C: in, Data: x}, Mat{R: n, C: out, Data: y.Grad}, dx)
	sameBits(t, "W.Grad", wantW, l.W.Grad)
	sameBits(t, "B.Grad", wantB, l.B.Grad)
	sameBits(t, "dx", xt.Grad, dx.Data)
}

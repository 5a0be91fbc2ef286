package nn

import (
	"math"
	"testing"

	"loam/internal/simrand"
)

// numericGrad estimates d(loss)/d(param[i]) by central differences.
func numericGrad(param *Tensor, i int, loss func() float64) float64 {
	const h = 1e-6
	orig := param.Data[i]
	param.Data[i] = orig + h
	up := loss()
	param.Data[i] = orig - h
	down := loss()
	param.Data[i] = orig
	return (up - down) / (2 * h)
}

// checkGrads verifies analytic gradients of loss() w.r.t. every element of
// params against finite differences. build must construct the graph fresh on
// every call and return the scalar loss tensor.
func checkGrads(t *testing.T, name string, params []*Tensor, build func() *Tensor) {
	t.Helper()
	lossVal := func() float64 { return build().Data[0] }
	// Analytic pass.
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
	build().Backward()
	for pi, p := range params {
		for i := range p.Data {
			want := numericGrad(p, i, lossVal)
			got := p.Grad[i]
			if math.Abs(want-got) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("%s: param %d elem %d grad = %g, numeric %g", name, pi, i, got, want)
				return
			}
		}
	}
}

func randParam(rng *simrand.RNG, r, c int) *Tensor {
	p := Param(r, c)
	for i := range p.Data {
		p.Data[i] = rng.Normal(0, 0.8)
	}
	return p
}

func TestMatMulGrad(t *testing.T) {
	rng := simrand.New(1)
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 1)
	targets := []float64{0.3, -0.2, 0.8}
	checkGrads(t, "matmul", []*Tensor{a, b}, func() *Tensor {
		return MSE(MatMul(a, b), targets)
	})
}

func TestMatMulGradMSEVector(t *testing.T) {
	rng := simrand.New(2)
	a := randParam(rng, 2, 3)
	b := randParam(rng, 3, 1)
	checkGrads(t, "matmul-vec", []*Tensor{a, b}, func() *Tensor {
		return MSE(MatMul(a, b), []float64{1, -1})
	})
}

func TestAddAndScaleGrad(t *testing.T) {
	rng := simrand.New(3)
	a := randParam(rng, 2, 2)
	b := randParam(rng, 2, 2)
	w := randParam(rng, 2, 1)
	checkGrads(t, "add+scale", []*Tensor{a, b, w}, func() *Tensor {
		return MSE(MatMul(Scale(Add(a, b), 0.7), w), []float64{0.2, -0.4})
	})
}

func TestAddRowGrad(t *testing.T) {
	rng := simrand.New(4)
	a := randParam(rng, 3, 2)
	row := randParam(rng, 1, 2)
	w := randParam(rng, 2, 1)
	checkGrads(t, "addrow", []*Tensor{a, row, w}, func() *Tensor {
		return MSE(MatMul(AddRow(a, row), w), []float64{1, 2, 3})
	})
}

func TestActivationGrads(t *testing.T) {
	rng := simrand.New(5)
	a := randParam(rng, 2, 3)
	w := randParam(rng, 3, 1)
	checkGrads(t, "relu", []*Tensor{a, w}, func() *Tensor {
		return MSE(MatMul(ReLU(a), w), []float64{0.5, -0.5})
	})
}

func TestConcatColsGrad(t *testing.T) {
	rng := simrand.New(6)
	a := randParam(rng, 2, 2)
	b := randParam(rng, 2, 3)
	w := randParam(rng, 5, 1)
	checkGrads(t, "concatcols", []*Tensor{a, b, w}, func() *Tensor {
		return MSE(MatMul(ConcatCols(a, b), w), []float64{0.1, 0.9})
	})
}

func TestConcatRowsGrad(t *testing.T) {
	rng := simrand.New(7)
	a := randParam(rng, 1, 3)
	b := randParam(rng, 2, 3)
	w := randParam(rng, 3, 1)
	checkGrads(t, "concatrows", []*Tensor{a, b, w}, func() *Tensor {
		return MSE(MatMul(ConcatRows(a, b), w), []float64{1, 2, 3})
	})
}

func TestGatherConcat3Grad(t *testing.T) {
	rng := simrand.New(8)
	x := randParam(rng, 3, 2)
	w := randParam(rng, 6, 1)
	self := []int{0, 1, 2}
	left := []int{1, 2, -1}
	right := []int{2, -1, -1}
	checkGrads(t, "gatherconcat3", []*Tensor{x, w}, func() *Tensor {
		return MSE(MatMul(GatherConcat3(x, self, left, right), w), []float64{0.2, 0.4, 0.6})
	})
}

func TestPoolingGrads(t *testing.T) {
	rng := simrand.New(9)
	cases := []struct {
		name string
		fn   func(*Tensor) *Tensor
	}{
		{"mean", MeanRows},
		{"max", MaxRows},
		{"sum", func(a *Tensor) *Tensor { return SumRows(a, 0.25) }},
	}
	for _, tc := range cases {
		x := randParam(rng, 4, 3)
		w := randParam(rng, 3, 1)
		checkGrads(t, tc.name, []*Tensor{x, w}, func() *Tensor {
			return MSE(MatMul(tc.fn(x), w), []float64{0.7})
		})
	}
}

func TestTransposeGrad(t *testing.T) {
	rng := simrand.New(11)
	x := randParam(rng, 2, 3)
	w := randParam(rng, 2, 1)
	checkGrads(t, "transpose", []*Tensor{x, w}, func() *Tensor {
		return MSE(MatMul(Transpose(x), w), []float64{1, 2, 3})
	})
}

func TestSoftmaxRowsGrad(t *testing.T) {
	rng := simrand.New(12)
	x := randParam(rng, 2, 4)
	w := randParam(rng, 4, 1)
	checkGrads(t, "softmax", []*Tensor{x, w}, func() *Tensor {
		return MSE(MatMul(SoftmaxRows(x), w), []float64{0.2, 0.8})
	})
}

func TestCrossEntropyGrad(t *testing.T) {
	rng := simrand.New(13)
	x := randParam(rng, 3, 2)
	labels := []int{0, 1, 0}
	checkGrads(t, "crossentropy", []*Tensor{x}, func() *Tensor {
		return CrossEntropy(x, labels)
	})
}

func TestGRLReversesGradient(t *testing.T) {
	rng := simrand.New(14)
	lambda := 1.0
	x := randParam(rng, 2, 2)
	w := randParam(rng, 2, 1)

	// Loss through GRL.
	lossGRL := MSE(MatMul(GRL(x, &lambda), w), []float64{1, -1})
	lossGRL.Backward()
	grlGrads := append([]float64(nil), x.Grad...)

	// Same loss without GRL.
	for i := range x.Grad {
		x.Grad[i] = 0
	}
	for i := range w.Grad {
		w.Grad[i] = 0
	}
	loss := MSE(MatMul(x, w), []float64{1, -1})
	loss.Backward()

	for i := range x.Grad {
		if math.Abs(grlGrads[i]+x.Grad[i]) > 1e-9 {
			t.Fatalf("GRL grad[%d] = %g, want %g (negated)", i, grlGrads[i], -x.Grad[i])
		}
	}
}

func TestGRLLambdaScales(t *testing.T) {
	rng := simrand.New(15)
	lambda := 0.5
	x := randParam(rng, 1, 2)
	w := randParam(rng, 2, 1)
	loss := MSE(MatMul(GRL(x, &lambda), w), []float64{1})
	loss.Backward()
	half := append([]float64(nil), x.Grad...)

	for i := range x.Grad {
		x.Grad[i] = 0
	}
	lambda2 := 1.0
	loss2 := MSE(MatMul(GRL(x, &lambda2), w), []float64{1})
	loss2.Backward()
	for i := range x.Grad {
		if math.Abs(x.Grad[i]-2*half[i]) > 1e-9 {
			t.Fatalf("lambda scaling wrong at %d: %g vs %g", i, x.Grad[i], 2*half[i])
		}
	}
}

func TestAddScalarLossGrad(t *testing.T) {
	rng := simrand.New(16)
	x := randParam(rng, 2, 1)
	y := randParam(rng, 2, 2)
	checkGrads(t, "addscalarloss", []*Tensor{x, y}, func() *Tensor {
		l1 := MSE(x, []float64{1, 2})
		l2 := CrossEntropy(y, []int{0, 1})
		return AddScalarLoss([]float64{1, 0.5}, l1, l2)
	})
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	Param(2, 2).Backward()
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestFromDataAndAccessors(t *testing.T) {
	m := FromData(2, 2, []float64{1, 2, 3, 4})
	if m.R != 2 || m.C != 2 {
		t.Fatalf("shape %dx%d", m.R, m.C)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Fatalf("Set failed")
	}
}

func TestMaxRowsSelectsArgmax(t *testing.T) {
	m := FromData(2, 2, []float64{1, 9, 5, 2})
	out := MaxRows(m)
	if out.Data[0] != 5 || out.Data[1] != 9 {
		t.Fatalf("MaxRows = %v", out.Data)
	}
}

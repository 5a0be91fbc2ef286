package nn

import (
	"math"
	"testing"

	"loam/internal/simrand"
)

func TestLinearShapes(t *testing.T) {
	rng := simrand.New(1)
	l := NewLinear(rng, 4, 3)
	out := l.Forward(New(5, 4))
	if out.R != 5 || out.C != 3 {
		t.Fatalf("shape %dx%d", out.R, out.C)
	}
	if len(l.Params()) != 2 {
		t.Fatalf("params %d", len(l.Params()))
	}
}

func TestTreeConvShapes(t *testing.T) {
	rng := simrand.New(2)
	tc := NewTreeConv(rng, 4, 6)
	x := New(3, 4)
	out := tc.Forward(x, []int{0, 1, 2}, []int{1, -1, -1}, []int{2, -1, -1})
	if out.R != 3 || out.C != 6 {
		t.Fatalf("shape %dx%d", out.R, out.C)
	}
}

func TestTreeConvLearnsChildDependentTarget(t *testing.T) {
	// A target that depends on a child feature is only learnable when the
	// convolution actually mixes child rows into parents.
	rng := simrand.New(3)
	tc := NewTreeConv(rng, 2, 4)
	head := NewLinear(rng, 4, 1)
	params := append(tc.Params(), head.Params()...)
	opt := NewAdam(params, 0.01)

	// Only the root's output is scored, so only its row is convolved.
	self := []int{0}
	left := []int{1}
	right := []int{-1}
	var last float64
	for step := 0; step < 300; step++ {
		childVal := rng.Uniform(-1, 1)
		x := FromData(2, 2, []float64{0.5, 0.5, childVal, 0})
		pred := head.Forward(tc.Forward(x, self, left, right))
		loss := MSE(pred, []float64{2 * childVal})
		opt.ZeroGrad()
		loss.Backward()
		opt.Step()
		last = loss.Data[0]
	}
	if last > 0.1 {
		t.Fatalf("tree conv failed to learn child-dependent target: loss %g", last)
	}
}

func TestGCNLayerShapes(t *testing.T) {
	rng := simrand.New(4)
	g := NewGCNLayer(rng, 3, 5)
	ahat := NormalizedAdjacency(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	out := g.Forward(ahat, New(4, 3))
	if out.R != 4 || out.C != 5 {
		t.Fatalf("shape %dx%d", out.R, out.C)
	}
}

func TestNormalizedAdjacencyProperties(t *testing.T) {
	a := NormalizedAdjacency(3, [][2]int{{0, 1}})
	// Symmetry.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > 1e-12 {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Self-loops present.
	for i := 0; i < 3; i++ {
		if a.At(i, i) <= 0 {
			t.Fatalf("missing self loop at %d", i)
		}
	}
	// Isolated node 2 has only its self loop, normalized to 1.
	if math.Abs(a.At(2, 2)-1) > 1e-12 {
		t.Fatalf("isolated self loop = %v", a.At(2, 2))
	}
}

func TestAttentionShapes(t *testing.T) {
	rng := simrand.New(5)
	att := NewAttention(rng, 6, 12)
	out := att.Forward(New(7, 6))
	if out.R != 7 || out.C != 6 {
		t.Fatalf("shape %dx%d", out.R, out.C)
	}
	if got := len(att.Params()); got != 10 {
		t.Fatalf("params %d", got)
	}
}

func TestAttentionGradFlow(t *testing.T) {
	rng := simrand.New(6)
	att := NewAttention(rng, 3, 6)
	x := randParam(rng, 2, 3)
	w := randParam(rng, 3, 1)
	checkGrads(t, "attention-x", []*Tensor{x}, func() *Tensor {
		return MSE(MatMul(MeanRows(att.Forward(x)), w), []float64{0.4})
	})
}

func TestParamCounts(t *testing.T) {
	rng := simrand.New(7)
	l := NewLinear(rng, 4, 3)
	if got := ParamCount(l.Params()); got != 4*3+3 {
		t.Fatalf("ParamCount = %d", got)
	}
	if got := ParamBytes(l.Params()); got != 8*(4*3+3) {
		t.Fatalf("ParamBytes = %d", got)
	}
}

func TestAdamConvergesOnLinearRegression(t *testing.T) {
	rng := simrand.New(8)
	l := NewLinear(rng, 3, 1)
	opt := NewAdam(l.Params(), 0.05)
	trueW := []float64{1.5, -2, 0.5}
	var last float64
	for step := 0; step < 400; step++ {
		x := New(8, 3)
		targets := make([]float64, 8)
		for i := range targets {
			for j, w := range trueW {
				x.Set(i, j, rng.Normal(0, 1))
				targets[i] += w * x.At(i, j)
			}
			targets[i] += 0.3
		}
		loss := MSE(l.Forward(x), targets)
		opt.ZeroGrad()
		loss.Backward()
		opt.Step()
		last = loss.Data[0]
	}
	if last > 0.01 {
		t.Fatalf("Adam failed to fit linear regression: loss %g", last)
	}
	if math.Abs(l.B.Data[0]-0.3) > 0.1 {
		t.Fatalf("bias %g, want ~0.3", l.B.Data[0])
	}
}

func TestAdamLRDecay(t *testing.T) {
	rng := simrand.New(9)
	l := NewLinear(rng, 2, 1)
	opt := NewAdam(l.Params(), 0.01)
	opt.DecayLR(0.99)
	if math.Abs(opt.LR-0.0099) > 1e-12 {
		t.Fatalf("LR after decay = %g", opt.LR)
	}
}

func TestAdamClipBoundsUpdates(t *testing.T) {
	p := Param(1, 1)
	p.Grad[0] = 1e9
	opt := NewAdam([]*Tensor{p}, 0.1)
	opt.Clip = 1
	before := p.Data[0]
	opt.Step()
	// With clipped gradient 1 and fresh moments, the update magnitude is
	// bounded by ~LR.
	if d := math.Abs(p.Data[0] - before); d > 0.2 {
		t.Fatalf("clipped update too large: %g", d)
	}
}

func TestInitXavierRange(t *testing.T) {
	rng := simrand.New(10)
	p := Param(10, 10)
	InitXavier(rng, p)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range p.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %g outside Xavier range ±%g", v, limit)
		}
	}
}

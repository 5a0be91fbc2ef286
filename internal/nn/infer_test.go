package nn

import (
	"fmt"
	"math"
	"testing"

	"loam/internal/simrand"
)

// randMat fills an r×c matrix with a mix of random values and exact zeros so
// the zero-skipping kernels exercise both branches.
func randMat(rng *simrand.RNG, r, c int) []float64 {
	data := make([]float64, r*c)
	for i := range data {
		if rng.Float64() < 0.25 {
			continue // exact zero
		}
		data[i] = rng.Uniform(-2, 2)
	}
	return data
}

func sameBits(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", name, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d differs: %v (%#x) vs %v (%#x)",
				name, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

func TestLinearForwardInferBitIdentical(t *testing.T) {
	rng := simrand.New(11)
	for _, shape := range [][3]int{{1, 7, 5}, {4, 16, 9}, {60, 33, 50}} {
		n, in, out := shape[0], shape[1], shape[2]
		l := NewLinear(rng.Derive("lin"), in, out)
		x := randMat(rng, n, in)

		want := l.Forward(FromData(n, in, x))

		var s Scratch
		got := l.ForwardInfer(&s, Mat{R: n, C: in, Data: x})
		sameBits(t, "linear", want.Data, got.Data)
	}
}

func TestMatMulNTIntoMatchesMatMul(t *testing.T) {
	rng := simrand.New(12)
	// n×k @ k×m through both kernels; the NT kernel sees b pre-transposed.
	n, k, m := 9, 14, 6
	a := randMat(rng, n, k)
	b := randMat(rng, k, m)
	bt := make([]float64, k*m)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			bt[j*k+i] = b[i*m+j]
		}
	}
	want := MatMul(FromData(n, k, a), FromData(k, m, b))
	got := make([]float64, n*m)
	MatMulNTInto(got, a, bt, n, k, m)
	sameBits(t, "matmulNT", want.Data, got)
}

// TestTreeConvForwardInferBitIdentical holds the fused sparse kernel to the
// training path's GatherConcat3 → MatMul → AddRow → ReLU. The output widths
// walk the eight-column register block from a lone tail column through one
// full block, a block plus a tail, and several blocks; the index lists are a
// forest, not a tree — a row read by two parents, a row nobody reads, left,
// right and both children absent, a node that is its own only child — and the
// input carries all-zero rows and -0.0, which the reduction must skip as it
// skips +0.
func TestTreeConvForwardInferBitIdentical(t *testing.T) {
	rng := simrand.New(13)
	const n, in = 9, 10
	self := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	left := []int{1, 3, 3, -1, -1, 7, -1, -1, 8}
	right := []int{2, 4, 6, -1, 5, -1, -1, -1, -1}
	for _, out := range []int{1, 7, 8, 9, 32, 33} {
		tc := NewTreeConv(rng.DeriveN("tc", out), in, out)
		InitXavier(rng.DeriveN("bias", out), tc.Lin.B)
		x := randMat(rng, n, in)
		for j := 0; j < in; j++ {
			x[3*in+j] = 0 // the shared child, all zeros
			x[7*in+j] = 0
		}
		x[0], x[4*in+2], x[6*in+9] = math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)

		want := tc.Forward(FromData(n, in, x), self, left, right)
		var s Scratch
		got := tc.ForwardInfer(&s, Mat{R: n, C: in, Data: x}, self, left, right)
		sameBits(t, fmt.Sprintf("treeconv out=%d", out), want.Data, got.Data)

		// A reused scratch must not carry one layer's sparse view into the next.
		s.Reset()
		again := tc.ForwardInfer(&s, Mat{R: n, C: in, Data: x}, self, left, right)
		sameBits(t, fmt.Sprintf("treeconv out=%d, reused scratch", out), want.Data, again.Data)

		// NaN weights poison the sums they reach; ReLU still writes +0 there.
		tc.Lin.W.Data[0], tc.Lin.W.Data[(in+3)*out+out-1] = math.NaN(), math.NaN()
		want = tc.Forward(FromData(n, in, x), self, left, right)
		s.Reset()
		got = tc.ForwardInfer(&s, Mat{R: n, C: in, Data: x}, self, left, right)
		sameBits(t, fmt.Sprintf("treeconv out=%d, NaN weights", out), want.Data, got.Data)
		for _, v := range got.Data {
			if math.IsNaN(v) || math.Signbit(v) {
				t.Fatalf("out=%d: ReLU let %v through", out, v)
			}
		}
	}
}

func TestGCNForwardInferBitIdentical(t *testing.T) {
	rng := simrand.New(14)
	n, in, out := 6, 9, 7
	g := NewGCNLayer(rng.Derive("gcn"), in, out)
	x := randMat(rng, n, in)
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {2, 5}}

	ahat := NormalizedAdjacency(n, edges)
	want := g.Forward(ahat, FromData(n, in, x))

	var s Scratch
	ahatI := NormalizedAdjacencyInto(&s, n, edges)
	sameBits(t, "adjacency", ahat.Data, ahatI.Data)
	got := g.ForwardInfer(&s, ahatI, Mat{R: n, C: in, Data: x})
	sameBits(t, "gcn", want.Data, got.Data)
}

// TestAttentionForwardInferBitIdentical compares the inference forward with
// the autograd forward. The score matrix is seq×seq, so the sequence lengths
// walk MatMulNTInto from a single element through small odd and even widths
// to one row and one column past an inferBlock tile.
func TestAttentionForwardInferBitIdentical(t *testing.T) {
	rng := simrand.New(15)
	dim := 12
	for _, seq := range []int{11, 1, 3, 4, 5, inferBlock + 1} {
		a := NewAttention(rng.Derive("att"), dim, 2*dim)
		x := randMat(rng, seq, dim)

		want := a.Forward(FromData(seq, dim, x))

		var s Scratch
		got := a.ForwardInfer(&s, Mat{R: seq, C: dim, Data: x})
		sameBits(t, fmt.Sprintf("attention seq=%d", seq), want.Data, got.Data)
	}
}

// TestPoolingIntoBitIdentical pins the one pooling kernel that is still two
// implementations: MaxRows keeps its own loop for the argmax its backward
// needs. MeanRows and SumRows call their *Into kernels.
func TestPoolingIntoBitIdentical(t *testing.T) {
	rng := simrand.New(16)
	x := randMat(rng, 9, 13)
	max := make([]float64, 13)
	MaxRowsInto(max, Mat{R: 9, C: 13, Data: x})
	sameBits(t, "max", MaxRows(FromData(9, 13, x)).Data, max)
}

// TestScratchReuse verifies that a Scratch grows once and then serves
// repeated identical request sequences without allocating.
func TestScratchReuse(t *testing.T) {
	var s Scratch
	shapes := [][2]int{{8, 120}, {8, 32}, {1, 96}, {1, 24}, {40, 40}}
	warm := func() {
		s.Reset()
		for _, sh := range shapes {
			m := s.Mat(sh[0], sh[1])
			m.Data[0] = 1
		}
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Fatalf("warmed scratch allocated %.1f times per run, want 0", allocs)
	}
}

// TestAttentionInferZeroAlloc is the allocation regression test for the
// inference forward: after warm-up, a full attention block forward performs
// zero heap allocations.
func TestAttentionInferZeroAlloc(t *testing.T) {
	rng := simrand.New(17)
	seq, dim := 10, 16
	a := NewAttention(rng.Derive("att"), dim, 2*dim)
	x := randMat(rng, seq, dim)
	xm := Mat{R: seq, C: dim, Data: x}

	var s Scratch
	run := func() {
		s.Reset()
		out := a.ForwardInfer(&s, xm)
		if out.R != seq {
			t.Fatal("bad shape")
		}
	}
	run() // warm: slabs grow, transposed weights precompute
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("warmed attention inference allocated %.1f times per run, want 0", allocs)
	}
}

package baselines

import (
	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/simrand"
)

// backbone is a baseline's PlanEmb (Fig. 3): embed builds the autograd graph
// training runs, embedInfer the allocation-free forward PredictCost runs,
// writing p's embedding into dst bit-identical to embed's. Both read the same
// view; embed fills one it owns, because the graph holds the rows until
// Backward.
type backbone interface {
	embed(p *plan.Plan, envs encoding.EnvSource) *nn.Tensor
	embedInfer(s *scratch, dst []float64, p *plan.Plan, envs encoding.EnvSource)
	params() []*nn.Tensor
}

// gcn stacks graph convolutions over the plan DAG.
type gcn struct {
	enc    *encoding.Encoder
	layers []*nn.GCNLayer
	proj   *nn.Linear
}

func newGCN(rng *simrand.RNG, enc *encoding.Encoder, hidden, layers, emb int) *gcn {
	b := &gcn{enc: enc}
	in := enc.Dim()
	for i := 0; i < layers; i++ {
		b.layers = append(b.layers, nn.NewGCNLayer(rng.DeriveN("gcn", i), in, hidden))
		in = hidden
	}
	b.proj = nn.NewLinear(rng.Derive("gcnProj"), 3*hidden, emb)
	return b
}

func (b *gcn) embed(p *plan.Plan, envs encoding.EnvSource) *nn.Tensor {
	var v view
	encodeView(b.enc, &v, p, envs)
	ahat := nn.NormalizedAdjacency(v.n, v.edges)
	x := nn.FromData(v.n, b.enc.Dim(), v.rows)
	for _, l := range b.layers {
		x = l.Forward(ahat, x)
	}
	pooled := nn.ConcatCols(nn.MeanRows(x), nn.MaxRows(x), nn.SumRows(x, 1.0/16))
	return nn.ReLU(b.proj.Forward(pooled))
}

func (b *gcn) embedInfer(s *scratch, dst []float64, p *plan.Plan, envs encoding.EnvSource) {
	s.nn.Reset()
	encodeView(b.enc, &s.view, p, envs)
	ahat := nn.NormalizedAdjacencyInto(&s.nn, s.view.n, s.view.edges)
	x := nn.Mat{R: s.view.n, C: b.enc.Dim(), Data: s.view.rows}
	for _, l := range b.layers {
		x = l.ForwardInfer(&s.nn, ahat, x)
	}
	pooled := s.nn.Mat(1, 3*x.C)
	nn.MeanRowsInto(pooled.Data[:x.C], x)
	nn.MaxRowsInto(pooled.Data[x.C:2*x.C], x)
	nn.SumRowsInto(pooled.Data[2*x.C:], x, 1.0/16)
	out := b.proj.ForwardInfer(&s.nn, pooled)
	nn.ReLUInPlace(out)
	copy(dst, out.Data)
}

func (b *gcn) params() []*nn.Tensor {
	var out []*nn.Tensor
	for _, l := range b.layers {
		out = append(out, l.Params()...)
	}
	return append(out, b.proj.Params()...)
}

// transformer runs attention blocks over the preorder node sequence.
type transformer struct {
	enc    *encoding.Encoder
	inProj *nn.Linear
	blocks []*nn.Attention
	proj   *nn.Linear
}

func newTransformer(rng *simrand.RNG, enc *encoding.Encoder, hidden, layers, emb int) *transformer {
	b := &transformer{
		enc:    enc,
		inProj: nn.NewLinear(rng.Derive("tfIn"), seqDim(enc), hidden),
	}
	for i := 0; i < layers; i++ {
		b.blocks = append(b.blocks, nn.NewAttention(rng.DeriveN("tf", i), hidden, 2*hidden))
	}
	b.proj = nn.NewLinear(rng.Derive("tfProj"), 2*hidden, emb)
	return b
}

func (b *transformer) embed(p *plan.Plan, envs encoding.EnvSource) *nn.Tensor {
	var v view
	encodeView(b.enc, &v, p, envs)
	x := b.inProj.Forward(nn.FromData(v.n, seqDim(b.enc), v.tokens(nil, b.enc.Dim())))
	for _, blk := range b.blocks {
		x = blk.Forward(x)
	}
	return nn.ReLU(b.proj.Forward(nn.ConcatCols(nn.MeanRows(x), nn.SumRows(x, 1.0/16))))
}

func (b *transformer) embedInfer(s *scratch, dst []float64, p *plan.Plan, envs encoding.EnvSource) {
	s.nn.Reset()
	encodeView(b.enc, &s.view, p, envs)
	s.tokens = s.view.tokens(s.tokens, b.enc.Dim())
	x := b.inProj.ForwardInfer(&s.nn, nn.Mat{R: s.view.n, C: seqDim(b.enc), Data: s.tokens})
	for _, blk := range b.blocks {
		x = blk.ForwardInfer(&s.nn, x)
	}
	pooled := s.nn.Mat(1, 2*x.C)
	nn.MeanRowsInto(pooled.Data[:x.C], x)
	nn.SumRowsInto(pooled.Data[x.C:], x, 1.0/16)
	out := b.proj.ForwardInfer(&s.nn, pooled)
	nn.ReLUInPlace(out)
	copy(dst, out.Data)
}

func (b *transformer) params() []*nn.Tensor {
	out := b.inProj.Params()
	for _, blk := range b.blocks {
		out = append(out, blk.Params()...)
	}
	return append(out, b.proj.Params()...)
}

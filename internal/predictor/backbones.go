package predictor

import (
	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/simrand"
)

// Kind selects the cost-model backbone. TCN is LOAM's default (§4); the
// others are the baselines of §7.1.
type Kind int

// Backbone kinds.
const (
	KindTCN Kind = iota + 1
	KindTransformer
	KindGCN
	KindXGBoost
)

// String names the backbone.
func (k Kind) String() string {
	switch k {
	case KindTCN:
		return "TCN"
	case KindTransformer:
		return "Transformer"
	case KindGCN:
		return "GCN"
	case KindXGBoost:
		return "XGBoost"
	default:
		return "Unknown"
	}
}

// backbone turns an encoded plan into a 1×emb embedding (PlanEmb in Fig. 3).
// embed builds the autograd graph used during training.
type backbone interface {
	embed(p *plan.Plan, envs encoding.EnvSource) *nn.Tensor
	params() []*nn.Tensor
}

// planEmbedder is the allocation-free serving path of a backbone that embeds
// plan by plan, GCN and Transformer (see infer.go): embedInfer writes the
// embedding of plans[k] into row k of dst (len(plans)×emb, row-major), each
// bit-identical to embed's of that plan alone. Both read the same node
// encoding; embed fills a view it owns, because the graph holds Feats until
// Backward. The TCN serves through the plan memo and embedForest instead.
type planEmbedder interface {
	embedInfer(s *inferScratch, dst []float64, plans []*plan.Plan, envs encoding.EnvSource)
}

// tcnBackbone is LOAM's tree convolutional network: stacked tree
// convolutions, mean+max pooling, and a fully connected projection.
type tcnBackbone struct {
	enc    *encoding.Encoder
	layers []*nn.TreeConv
	proj   *nn.Linear
}

func newTCN(rng *simrand.RNG, enc *encoding.Encoder, hidden, layers, emb int) *tcnBackbone {
	b := &tcnBackbone{enc: enc}
	in := enc.Dim()
	for i := 0; i < layers; i++ {
		b.layers = append(b.layers, nn.NewTreeConv(rng.DeriveN("tcn", i), in, hidden))
		in = hidden
	}
	b.proj = nn.NewLinear(rng.Derive("tcnProj"), 3*hidden, emb)
	return b
}

func (b *tcnBackbone) embed(p *plan.Plan, envs encoding.EnvSource) *nn.Tensor {
	var ft encoding.FlatTree
	b.enc.EncodeTreeFlatInto(&ft, p, envs)
	x := nn.FromData(ft.Len(), b.enc.Dim(), ft.Feats)
	for _, l := range b.layers {
		x = l.Forward(x, ft.Self, ft.Left, ft.Right)
	}
	pooled := nn.ConcatCols(nn.MeanRows(x), nn.MaxRows(x), nn.SumRows(x, 1.0/16))
	return nn.ReLU(b.proj.Forward(pooled))
}

func (b *tcnBackbone) params() []*nn.Tensor {
	var out []*nn.Tensor
	for _, l := range b.layers {
		out = append(out, l.Params()...)
	}
	return append(out, b.proj.Params()...)
}

// gcnBackbone stacks graph convolutions over the plan DAG.
type gcnBackbone struct {
	enc    *encoding.Encoder
	layers []*nn.GCNLayer
	proj   *nn.Linear
}

func newGCN(rng *simrand.RNG, enc *encoding.Encoder, hidden, layers, emb int) *gcnBackbone {
	b := &gcnBackbone{enc: enc}
	in := enc.Dim()
	for i := 0; i < layers; i++ {
		b.layers = append(b.layers, nn.NewGCNLayer(rng.DeriveN("gcn", i), in, hidden))
		in = hidden
	}
	b.proj = nn.NewLinear(rng.Derive("gcnProj"), 3*hidden, emb)
	return b
}

func (b *gcnBackbone) embed(p *plan.Plan, envs encoding.EnvSource) *nn.Tensor {
	var fg encoding.FlatGraph
	b.enc.EncodeGraphFlatInto(&fg, p, envs)
	ahat := nn.NormalizedAdjacency(fg.Len(), fg.Edges)
	x := nn.FromData(fg.Len(), b.enc.Dim(), fg.Feats)
	for _, l := range b.layers {
		x = l.Forward(ahat, x)
	}
	pooled := nn.ConcatCols(nn.MeanRows(x), nn.MaxRows(x), nn.SumRows(x, 1.0/16))
	return nn.ReLU(b.proj.Forward(pooled))
}

func (b *gcnBackbone) params() []*nn.Tensor {
	var out []*nn.Tensor
	for _, l := range b.layers {
		out = append(out, l.Params()...)
	}
	return append(out, b.proj.Params()...)
}

// transformerBackbone runs attention blocks over the preorder node sequence.
type transformerBackbone struct {
	enc    *encoding.Encoder
	inProj *nn.Linear
	blocks []*nn.Attention
	proj   *nn.Linear
}

func newTransformer(rng *simrand.RNG, enc *encoding.Encoder, hidden, layers, emb int) *transformerBackbone {
	b := &transformerBackbone{
		enc:    enc,
		inProj: nn.NewLinear(rng.Derive("tfIn"), enc.SeqDim(), hidden),
	}
	for i := 0; i < layers; i++ {
		b.blocks = append(b.blocks, nn.NewAttention(rng.DeriveN("tf", i), hidden, 2*hidden))
	}
	b.proj = nn.NewLinear(rng.Derive("tfProj"), 2*hidden, emb)
	return b
}

func (b *transformerBackbone) embed(p *plan.Plan, envs encoding.EnvSource) *nn.Tensor {
	var fs encoding.FlatSeq
	b.enc.EncodeSequenceFlatInto(&fs, p, envs)
	x := b.inProj.Forward(nn.FromData(fs.Len(), b.enc.SeqDim(), fs.Feats))
	for _, blk := range b.blocks {
		x = blk.Forward(x)
	}
	return nn.ReLU(b.proj.Forward(nn.ConcatCols(nn.MeanRows(x), nn.SumRows(x, 1.0/16))))
}

func (b *transformerBackbone) params() []*nn.Tensor {
	out := b.inProj.Params()
	for _, blk := range b.blocks {
		out = append(out, blk.Params()...)
	}
	return append(out, b.proj.Params()...)
}

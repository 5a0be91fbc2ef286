package predictor

import (
	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/simrand"
)

// Kind is Config.Kind's type. KindTCN, LOAM's tree convolutional network
// (§4), is the one model the predictor builds; the §7.1 baselines live in
// internal/baselines.
type Kind int

// KindTCN is the TCN backbone. A zero Kind means it too.
const KindTCN Kind = 1

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

// Params lists the TCN's tensors: each layer's, then the projection's.
func (b *tcnBackbone) Params() []*nn.Tensor {
	var out []*nn.Tensor
	for _, l := range b.layers {
		out = append(out, l.Params()...)
	}
	return append(out, b.proj.Params()...)
}

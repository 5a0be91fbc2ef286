package predictor

import (
	"sync"

	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/plan"
)

// This file is the predictor's inference fast path: per-call scratch arenas,
// allocation-free backbone forwards (embedInfer), and the batched cost-head
// scoring (scoreCandidates) behind SelectPlan and SelectPlanKeyed. It reads
// the encoders and runs the kernels the training-path embed wraps (see
// internal/nn/infer.go for which are shared and which pinned by test); what
// differs is how layers are chained, held bit-identical by
// TestScoringPathsBitIdentical — so serving changes latency and allocation
// counts but never a single predicted cost or plan choice.

// inferScratch bundles one call's reusable inference state: the nn
// activation arena plus the flat encoding buffers each backbone kind fills
// in place. One inferScratch serves one forward pass at a time; concurrent
// callers each borrow their own from the pool.
type inferScratch struct {
	nn nn.Scratch
	ft encoding.FlatTree
	fg encoding.FlatGraph
	fs encoding.FlatSeq

	// stage is the cross-row embedding batch of scoreCandidates. It lives
	// outside the nn arena on purpose: embedRow resets s.nn once per
	// candidate, which would invalidate an arena-backed batch mid-fill. It is
	// grown with the self-append idiom (growFloats) so steady-state scoring
	// allocates nothing.
	stage []float64
}

// growFloats extends buf to at least n elements. Growth is the plain
// self-append idiom — x = append(x, ...) — and amortized: after warm-up the
// loop body never runs and the serving path performs zero allocations
// (TestPredictCostZeroAlloc).
func growFloats(buf []float64, n int) []float64 {
	for len(buf) < n {
		buf = append(buf, 0)
	}
	return buf
}

// scratchPool recycles inference scratch state across queries and goroutines.
var scratchPool = sync.Pool{New: func() any { return new(inferScratch) }}

func getScratch() *inferScratch  { return scratchPool.Get().(*inferScratch) }
func putScratch(s *inferScratch) { scratchPool.Put(s) }

// poolConcat3 computes ConcatCols(MeanRows(x), MaxRows(x), SumRows(x, 1/16))
// into a single 1×3C scratch row — the TCN/GCN pooling head.
func poolConcat3(s *nn.Scratch, x nn.Mat) nn.Mat {
	pooled := s.Mat(1, 3*x.C)
	nn.MeanRowsInto(pooled.Data[:x.C], x)
	nn.MaxRowsInto(pooled.Data[x.C:2*x.C], x)
	nn.SumRowsInto(pooled.Data[2*x.C:], x, 1.0/16)
	return pooled
}

func (b *tcnBackbone) embedInfer(s *inferScratch, p *plan.Plan, envs encoding.EnvSource) nn.Mat {
	b.enc.EncodeTreeFlatInto(&s.ft, p, envs)
	x := nn.Mat{R: s.ft.Len(), C: b.enc.Dim(), Data: s.ft.Feats}
	for _, l := range b.layers {
		x = l.ForwardInfer(&s.nn, x, s.ft.Self, s.ft.Left, s.ft.Right)
	}
	out := b.proj.ForwardInfer(&s.nn, poolConcat3(&s.nn, x))
	nn.ReLUInPlace(out)
	return out
}

func (b *gcnBackbone) embedInfer(s *inferScratch, p *plan.Plan, envs encoding.EnvSource) nn.Mat {
	b.enc.EncodeGraphFlatInto(&s.fg, p, envs)
	n := s.fg.Len()
	ahat := nn.NormalizedAdjacencyInto(&s.nn, n, s.fg.Edges)
	x := nn.Mat{R: n, C: b.enc.Dim(), Data: s.fg.Feats}
	for _, l := range b.layers {
		x = l.ForwardInfer(&s.nn, ahat, x)
	}
	out := b.proj.ForwardInfer(&s.nn, poolConcat3(&s.nn, x))
	nn.ReLUInPlace(out)
	return out
}

func (b *transformerBackbone) embedInfer(s *inferScratch, p *plan.Plan, envs encoding.EnvSource) nn.Mat {
	b.enc.EncodeSequenceFlatInto(&s.fs, p, envs)
	x := nn.Mat{R: s.fs.Len(), C: b.enc.SeqDim(), Data: s.fs.Feats}
	x = b.inProj.ForwardInfer(&s.nn, x)
	for _, blk := range b.blocks {
		x = blk.ForwardInfer(&s.nn, x)
	}
	pooled := s.nn.Mat(1, 2*x.C)
	nn.MeanRowsInto(pooled.Data[:x.C], x)
	nn.SumRowsInto(pooled.Data[x.C:], x, 1.0/16)
	out := b.proj.ForwardInfer(&s.nn, pooled)
	nn.ReLUInPlace(out)
	return out
}

// embedRow writes the embedding of pl into dst, consulting the plan cache
// when one is enabled and the environment source is keyed. Cache values are
// private copies, never scratch-backed slices.
func (p *Predictor) embedRow(s *inferScratch, pl *plan.Plan, envs encoding.EnvSource, key encoding.EnvKey, dst []float64) {
	if c := p.cache; c != nil && key.Keyed {
		emb := c.getOrCompute(cacheKey{plan: pl.CacheFingerprint(), env: key.Sum}, func() []float64 {
			s.nn.Reset()
			m := p.bb.embedInfer(s, pl, envs)
			out := make([]float64, len(m.Data))
			copy(out, m.Data)
			return out
		})
		copy(dst, emb)
		return
	}
	s.nn.Reset()
	m := p.bb.embedInfer(s, pl, envs)
	copy(dst, m.Data)
}

// scoreCandidates is the one candidate-scoring core behind SelectPlan and
// SelectPlanKeyed. Embeddings are computed (or fetched from the plan cache)
// candidate by candidate, stacked into one n×emb matrix and scored with a
// single matrix-matrix forward through the cost head. Each output row is the
// same full-length dot product PredictCost computes, so costs are
// bit-identical to scoring candidates one at a time. The XGBoost backbone has
// no embedding to stage or cache and scores per candidate.
func (p *Predictor) scoreCandidates(costs []float64, cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) {
	if p.cfg.Kind == KindXGBoost {
		for i, c := range cands {
			costs[i] = p.PredictCost(c, envs)
		}
		return
	}
	n := len(cands)
	embDim := p.costHead.W.R
	s := getScratch()
	defer putScratch(s)
	s.stage = growFloats(s.stage, n*embDim)
	batch := s.stage[:n*embDim]
	for i, c := range cands {
		p.embedRow(s, c, envs, key, batch[i*embDim:(i+1)*embDim])
	}
	s.nn.Reset()
	out := p.costHead.ForwardInfer(&s.nn, nn.Mat{R: n, C: embDim, Data: batch})
	for i := range costs {
		costs[i] = p.denormalize(out.Data[i])
	}
}

package predictor

import (
	"sync"

	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/plan"
)

// This file is the predictor's inference fast path: per-call scratch arenas,
// allocation-free backbone forwards (embedInfer) and the one scoring core
// (score) behind PredictCost, SelectPlan and SelectPlanKeyed. It reads the
// encoders and runs the kernels the training-path embed wraps (see
// internal/nn/infer.go for which are shared and which pinned by test); what
// differs is how layers are chained and that the TCN convolves a candidate
// set as one forest, held bit-identical by TestScoringPathsBitIdentical — so
// serving changes latency and allocation counts but never a single predicted
// cost or plan choice.

// inferScratch bundles one call's reusable inference state: the nn
// activation arena plus the flat encoding buffers each backbone kind fills
// in place. One inferScratch serves one scoring pass at a time; concurrent
// callers each borrow their own from the pool.
type inferScratch struct {
	nn     nn.Scratch
	forest encoding.Forest
	fg     encoding.FlatGraph
	fs     encoding.FlatSeq

	// stage is the candidates×emb batch the cost head reads, outside the nn
	// arena (embedInfer resets that) and grown by self-append (growFloats).
	stage []float64

	// A cached pass's claims: every candidate's entry; those it owns; their plans.
	entries, owned []*cacheEntry
	ownedPlans     []*plan.Plan

	// one is a set of one; a local array would escape through the backbone
	// interface and allocate.
	one [1]*plan.Plan
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

// poolConcat3Into computes ConcatCols(MeanRows(x), MaxRows(x), SumRows(x,
// 1/16)) into the 3C-element dst — the TCN/GCN pooling head.
func poolConcat3Into(dst []float64, x nn.Mat) {
	nn.MeanRowsInto(dst[:x.C], x)
	nn.MaxRowsInto(dst[x.C:2*x.C], x)
	nn.SumRowsInto(dst[2*x.C:], x, 1.0/16)
}

// embedInfer for the TCN is one forward over the forest of plans: every
// distinct subtree is one row, convolved once per layer; each plan is then
// pooled over its own preorder row list — the values, in the order, a forward
// over that plan alone pools — and projected. GCN and Transformer embed plan
// by plan: a graph convolution mixes a node with its parent, attention with
// every token, so no activation is a function of the subtree below it.
func (b *tcnBackbone) embedInfer(s *inferScratch, dst []float64, plans []*plan.Plan, envs encoding.EnvSource) {
	f := &s.forest
	b.enc.EncodeForestInto(f, plans, envs)
	s.nn.Reset()
	x := nn.Mat{R: f.Len(), C: b.enc.Dim(), Data: f.Feats}
	for _, l := range b.layers {
		x = l.ForwardInfer(&s.nn, x, f.Self, f.Left, f.Right)
	}
	pooled := s.nn.Mat(len(plans), 3*x.C)
	for k := range plans {
		rows := f.PlanRows(k)
		own := s.nn.Mat(len(rows), x.C)
		nn.GatherRowsInto(own, 0, x, rows)
		poolConcat3Into(pooled.Data[k*pooled.C:(k+1)*pooled.C], own)
	}
	out := b.proj.ForwardInfer(&s.nn, pooled)
	nn.ReLUInPlace(out)
	copy(dst, out.Data)
}

func (b *gcnBackbone) embedInfer(s *inferScratch, dst []float64, plans []*plan.Plan, envs encoding.EnvSource) {
	for k, p := range plans {
		s.nn.Reset()
		b.enc.EncodeGraphFlatInto(&s.fg, p, envs)
		n := s.fg.Len()
		ahat := nn.NormalizedAdjacencyInto(&s.nn, n, s.fg.Edges)
		x := nn.Mat{R: n, C: b.enc.Dim(), Data: s.fg.Feats}
		for _, l := range b.layers {
			x = l.ForwardInfer(&s.nn, ahat, x)
		}
		pooled := s.nn.Mat(1, 3*x.C)
		poolConcat3Into(pooled.Data, x)
		out := b.proj.ForwardInfer(&s.nn, pooled)
		nn.ReLUInPlace(out)
		copy(dst[k*out.C:], out.Data)
	}
}

func (b *transformerBackbone) embedInfer(s *inferScratch, dst []float64, plans []*plan.Plan, envs encoding.EnvSource) {
	for k, p := range plans {
		s.nn.Reset()
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
		copy(dst[k*out.C:], out.Data)
	}
}

// embedCached fills batch (row i = the embedding of cands[i]) through the
// plan cache, by its one protocol (cache.go): claim every candidate in order,
// compute what this pass owns as one embedInfer, publish, only then wait.
// Cache values are private copies, never scratch-backed slices.
func (p *Predictor) embedCached(s *inferScratch, batch []float64, cands []*plan.Plan, envs encoding.EnvSource, env uint64) {
	c, embDim := p.cache, p.costHead.W.R
	s.entries, s.owned, s.ownedPlans = s.entries[:0], s.owned[:0], s.ownedPlans[:0]
	published := 0
	defer func() {
		// A panic mid-compute fails every entry still unpublished, so no
		// waiter stays parked; the pooled scratch pins nothing either way.
		for _, e := range s.owned[published:] {
			c.fail(e)
		}
		clear(s.entries)
		clear(s.owned)
		clear(s.ownedPlans)
	}()
	for _, pl := range cands {
		e, owner := c.claim(cacheKey{plan: pl.CacheFingerprint(), env: env})
		s.entries = append(s.entries, e)
		if owner {
			s.owned = append(s.owned, e)
			s.ownedPlans = append(s.ownedPlans, pl)
		}
	}
	if len(s.owned) > 0 {
		// Staged in batch's first rows; the loop below refills every row.
		p.bb.embedInfer(s, batch, s.ownedPlans, envs)
		for k, e := range s.owned {
			e.publish(append([]float64(nil), batch[k*embDim:(k+1)*embDim]...))
			published++
		}
	}
	for i, e := range s.entries {
		row := batch[i*embDim : (i+1)*embDim]
		<-e.done
		if e.failed {
			// The pass that owned it died; compute here, cache untouched.
			s.one[0] = cands[i]
			p.bb.embedInfer(s, row, s.one[:], envs)
			s.one[0] = nil
			continue
		}
		copy(row, e.emb)
	}
}

// score is the one scoring core behind PredictCost, SelectPlan and
// SelectPlanKeyed. Embeddings are computed — or, with a cache enabled and a
// keyed environment source, fetched from the plan cache — into one n×emb
// matrix and scored in a single forward through the cost head. Each output
// row is a dot product over that candidate's embedding alone, so a cost never
// depends on what it was scored beside.
func (p *Predictor) score(s *inferScratch, costs []float64, cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) {
	n := len(cands)
	embDim := p.costHead.W.R
	s.stage = growFloats(s.stage, n*embDim)
	batch := s.stage[:n*embDim]
	if p.cache != nil && key.Keyed {
		p.embedCached(s, batch, cands, envs, key.Sum)
	} else {
		p.bb.embedInfer(s, batch, cands, envs)
	}
	s.nn.Reset()
	out := p.costHead.ForwardInfer(&s.nn, nn.Mat{R: n, C: embDim, Data: batch})
	for i := range costs {
		costs[i] = p.denormalize(out.Data[i])
	}
}

// scoreCandidates scores a candidate set through score; the XGBoost backbone
// has no embedding to stage or cache and scores per candidate.
func (p *Predictor) scoreCandidates(costs []float64, cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) {
	if p.cfg.Kind == KindXGBoost {
		for i, c := range cands {
			costs[i] = p.PredictCost(c, envs)
		}
		return
	}
	s := getScratch()
	defer putScratch(s)
	p.score(s, costs, cands, envs, key)
}

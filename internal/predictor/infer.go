package predictor

import (
	"sync"

	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/plan"
)

// This file is the predictor's inference fast path: per-call scratch arenas,
// allocation-free backbone forwards (embedInfer, embedForest) and the one
// scoring core (score) behind PredictCost and SelectPlanKeyed. It reads the
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
	nn      nn.Scratch
	forest  encoding.Forest
	classes classTable
	memo    memoScratch
	fg      encoding.FlatGraph
	fs      encoding.FlatSeq

	stage []float64 // the plans×emb batch the cost head reads (Predictor.stage)

	// A cached pass's claims: every candidate's entry; those it owns; their
	// plans and estimates.
	entries, owned []*cacheEntry
	ownedPlans     []*plan.Plan
	ownedCosts     []float64

	// one is a set of one; a local array would escape through the backbone
	// interface and allocate.
	one [1]*plan.Plan
}

// grow extends buf to at least n elements. Growth is the plain
// self-append idiom — x = append(x, ...) — and amortized: after warm-up the
// loop body never runs and the serving path performs zero allocations
// (TestPredictCostZeroAlloc).
func grow[T int | float64](buf []T, n int) []T {
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

// embedForest is one forward over the forest f of n plans, by class: each
// layer convolves one row per class, the class table's triples its gather
// lists; each plan is pooled over its nodes' last-layer rows in its own
// preorder, as a forward over it alone pools, and projected. GCN and
// Transformer embed plan by plan: a graph convolution mixes a node with its
// parent, attention with every token.
func (b *tcnBackbone) embedForest(s *inferScratch, dst []float64, f *encoding.Forest, n int) {
	c := &s.classes
	s.nn.Reset()
	c.start(f)
	x := nn.Mat{R: f.Rows(), C: b.enc.Dim(), Data: f.Dense()}
	for _, layer := range b.layers {
		c.next(f)
		x = layer.ForwardInfer(&s.nn, x, c.self, c.left, c.right)
	}
	pooled := s.nn.Mat(n, 3*x.C)
	for k := range n {
		rows := c.rowsOf(f.PlanNodes(k))
		own := s.nn.Mat(len(rows), x.C)
		nn.GatherRowsInto(own, 0, x, rows)
		poolConcat3Into(pooled.Data[k*pooled.C:(k+1)*pooled.C], own)
	}
	out := b.proj.ForwardInfer(&s.nn, pooled)
	nn.ReLUInPlace(out)
	copy(dst, out.Data)
}

// classTable interns a forest's entries into classes, one layer at a time.
// An entry's layer-0 class is its feature row; its layer-k class is the
// triple of the layer-(k-1) classes of itself and its left and right
// children (-1 absent). TreeConv.ForwardInfer computes an output row from its
// three input rows alone, so by induction a class's entries have
// Float64bits-equal activations, and a layer convolves one row per class.
type classTable struct {
	of, below         []int   // each entry's class at this layer and the one below
	self, left, right []int   // this layer's classes' triples
	rows              []int   // rowsOf's result
	slots             []int32 // open-addressed: a class + 1, 0 when free
}

// start puts every entry in its layer-0 class, its feature row.
func (t *classTable) start(f *encoding.Forest) {
	t.of = append(t.of[:0], f.Row...)
}

// next moves every entry one layer up, numbering the classes in the order the
// entries first reach them.
func (t *classTable) next(f *encoding.Forest) {
	size := 1
	for size < 2*len(t.of) {
		size *= 2
	}
	for len(t.slots) < size {
		t.slots = append(t.slots, 0)
	}
	slots, mask := t.slots[:size], uint64(size-1)
	clear(slots)
	t.of, t.below = t.below[:0], t.of
	t.self, t.left, t.right = t.self[:0], t.left[:0], t.right[:0]
	for e, s := range t.below {
		l, r := classOf(t.below, f.Left[e]), classOf(t.below, f.Right[e])
		i := tripleHash(s, l, r) & mask
		for {
			c := int(slots[i]) - 1
			if c < 0 {
				c = len(t.self)
				slots[i] = int32(c + 1)
				t.self, t.left, t.right = append(t.self, s), append(t.left, l), append(t.right, r)
			} else if t.self[c] != s || t.left[c] != l || t.right[c] != r {
				i = (i + 1) & mask
				continue
			}
			t.of = append(t.of, c)
			break
		}
	}
}

// classOf is entry e's class in of, -1 for an absent child.
func classOf(of []int, e int) int {
	if e < 0 {
		return -1
	}
	return of[e]
}

// tripleHash spreads a triple over the class table.
func tripleHash(s, l, r int) uint64 {
	h := (uint64(s)*0x9e3779b97f4a7c15 ^ uint64(l+1)) * 0xbf58476d1ce4e5b9
	h = (h ^ uint64(r+1)) * 0x94d049bb133111eb
	return h ^ h>>31
}

// rowsOf maps a plan's entries to their classes at the current layer: the
// rows of the layer last convolved.
func (t *classTable) rowsOf(entries []int) []int {
	t.rows = t.rows[:0]
	for _, e := range entries {
		t.rows = append(t.rows, t.of[e])
	}
	return t.rows
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

// score is the one scoring core behind PredictCost and SelectPlanKeyed: with
// a cache enabled and a keyed environment source each candidate's estimate
// comes through the plan cache (scoreCached), otherwise every candidate is
// estimated (estimate).
func (p *Predictor) score(s *inferScratch, costs []float64, cands []*plan.Plan, envs encoding.EnvSource, key encoding.EnvKey) {
	if p.cache != nil && key.Keyed {
		p.scoreCached(s, costs, cands, envs, key.Sum)
		return
	}
	p.estimate(s, costs, cands, envs)
}

// estimate embeds plans into one n×emb matrix — the TCN as one forest — and
// scores it in a single forward through the cost head. Each output row is a
// dot product over that plan's embedding alone, so a cost never depends on
// what it was scored beside: which is why the plan cache can hold a plan's
// estimate, computed beside whatever the pass that owned it scored, why a
// plan estimated alone costs what it costs in a set, and why the TCN's plan
// memo (memo.go) can answer a plan first. XGBoost has no embedding: each plan
// is one booster prediction over its flat encoding.
func (p *Predictor) estimate(s *inferScratch, costs []float64, plans []*plan.Plan, envs encoding.EnvSource) {
	switch {
	case p.cfg.Kind == KindXGBoost:
		for i, pl := range plans {
			costs[i] = p.denormalize(p.xgbModel.Predict(p.enc.EncodeFlat(pl, envs)))
		}
	case p.memo != nil: // the TCN: build gives it a plan memo
		p.estimateMemo(s, costs, plans, envs)
	default: // GCN and Transformer
		p.bb.(planEmbedder).embedInfer(s, p.stage(s, len(plans)), plans, envs)
		p.head(s, costs)
	}
}

// estimateMemo is estimate for the TCN: the plan memo answers the plans of
// the forest it knows, and the forward runs over a forest of the others
// alone, whose estimates are then stored.
func (p *Predictor) estimateMemo(s *inferScratch, costs []float64, plans []*plan.Plan, envs encoding.EnvSource) {
	f, ms := &s.forest, &s.memo
	p.enc.EncodeForestInto(f, plans, envs)
	p.memo.recall(ms, f, costs)
	n := len(ms.miss)
	if n == 0 {
		return
	}
	if n < len(plans) {
		ms.plans = ms.plans[:0]
		for _, k := range ms.miss {
			ms.plans = append(ms.plans, plans[k])
		}
		p.enc.EncodeForestInto(f, ms.plans, envs)
		clear(ms.plans)
	}
	p.bb.(*tcnBackbone).embedForest(s, p.stage(s, n), f, n)
	ms.costs = grow(ms.costs, n)
	p.head(s, ms.costs[:n])
	p.memo.store(ms, f, ms.costs[:n])
	for i, k := range ms.miss {
		costs[k] = ms.costs[i]
	}
}

// stage returns the n×emb batch the cost head reads; head scores it.
func (p *Predictor) stage(s *inferScratch, n int) []float64 {
	s.stage = grow(s.stage, n*p.costHead.W.R)
	return s.stage[:n*p.costHead.W.R]
}

func (p *Predictor) head(s *inferScratch, costs []float64) {
	s.nn.Reset()
	out := p.costHead.ForwardInfer(&s.nn, nn.Mat{R: len(costs), C: p.costHead.W.R, Data: s.stage[:len(costs)*p.costHead.W.R]})
	for i := range costs {
		costs[i] = p.denormalize(out.Data[i])
	}
}

// scoreCached fills costs (costs[i] = the estimate of cands[i]) through the
// plan cache, by its one protocol (cache.go): claim every candidate in order,
// estimate what this pass owns as one set, publish, only then wait.
func (p *Predictor) scoreCached(s *inferScratch, costs []float64, cands []*plan.Plan, envs encoding.EnvSource, env uint64) {
	c := p.cache
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
	c.claimAll(s, cands, env)
	if len(s.owned) > 0 {
		s.ownedCosts = grow(s.ownedCosts, len(s.owned))
		owned := s.ownedCosts[:len(s.owned)]
		p.estimate(s, owned, s.ownedPlans, envs)
		for k, e := range s.owned {
			e.publish(owned[k])
			published++
		}
	}
	for i, e := range s.entries {
		e.wait()
		if e.failed {
			// The pass that owned it died; estimate here, cache untouched.
			s.one[0] = cands[i]
			p.estimate(s, costs[i:i+1], s.one[:], envs)
			s.one[0] = nil
			continue
		}
		costs[i] = e.cost
	}
}

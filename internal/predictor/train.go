package predictor

import (
	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/plan"
)

// This file trains the TCN the way it serves: a minibatch — the default
// plans and the drawn domain candidates — is one encoding.Forest, its forward
// is the serving forest's, by class, and its backward is hand-written over
// the kernels of internal/nn/train.go into buffers one trainLoop call owns.
// The weights it ends with are Float64bits-equal to those the per-plan
// autograd graphs of tcnBackbone.embed produce, which stays as the oracle
// (TestTrainTCNForestMatchesAutograd). Three orders decide the bits:
//
//  1. Across plans, for every backbone parameter: the autograd backward runs
//     in reverse topological order, which is the candidates in reverse draw
//     order, then the defaults in reverse batch order, each plan's rows in
//     its preorder. The forest lists the plans in exactly that order, so every
//     kernel adds its rows in forest order.
//  2. Into the last layer's rows, from the pooling: the sum's, the max's and
//     the mean's contributions, the reverse of the pooled row's order
//     (nn.PoolBackwardInto).
//  3. Into each bias: the rows in the order of 1 (nn.AddRowsInto).
//
// The cost head, the domain classifier and the gradient reversal stay on
// autograd: they run once per minibatch already. They read the embeddings
// as two leaf tensors, and the backbone's backward starts from the gradient
// the heads leave in them. Class dedup feeds the forward only; the backward
// runs once per use of a node.

// batchTrainer is a backbone that trains a minibatch as one forward and one
// hand-written backward. A backbone without it trains plan by plan through
// embed's autograd graph.
type batchTrainer interface {
	trainer() *tcnTrainer
}

func (b *tcnBackbone) trainer() *tcnTrainer { return &tcnTrainer{b: b} }

// tcnTrainer is one trainLoop call's batched TCN state. Every buffer is
// reused step to step and dropped with the call; no pool outlives it.
type tcnTrainer struct {
	b       *tcnBackbone
	forest  encoding.Forest
	classes classTable
	convs   []nn.Scratch // layer l's input's sparse view and output rows, kept for its backward
	head    nn.Scratch   // the pooling and the projection
	plans   []*plan.Plan

	// The forward, kept for the backward. Plan u of the forest is a drawn
	// candidate for u < nc, a default plan from there on.
	nc, nd int
	of     [][]int  // of[l][e]: entry e's class at layer l; of[0] is its feature row
	acts   []nn.Mat // acts[l]: one row per class at layer l; acts[0] the feature rows
	pooled nn.Mat   // plan u's [mean; max; sum/16] of its last-layer rows
	argmax []int    // plan u's max, column by column: the row it came from
	emb    nn.Mat   // plan u's embedding
	edef   *nn.Tensor
	ecand  *nn.Tensor

	// The backward, one row per node of each plan, in forest order.
	from              []int // the offset in dg of the parent's block that gathered the row, -1 at a root
	self, left, right []int // the row's gather list one layer down
	dx, dpre, dg      []float64
	dproj, dpool      []float64
}

// forward embeds a minibatch: train[batch[i]] under its own environment
// source (none without cfg.UseEnv), and each of drawn under candEnv. It
// returns the defaults' embeddings as one leaf tensor, and, when plans were
// drawn, every embedding — defaults, then candidates — as the domain head's
// input, exactly as ConcatRows of the per-plan embeddings reads.
func (t *tcnTrainer) forward(train []Sample, batch []int, drawn []*plan.Plan, candEnv encoding.EnvSource, useEnv bool) (embDef, embAll *nn.Tensor) {
	b, f, c := t.b, &t.forest, &t.classes
	t.nc, t.nd = len(drawn), len(batch)
	// The plans go in in the order the backward adds them (order 1 above):
	// the drawn ones last to first under one source, then the defaults last
	// to first, each under its own.
	b.enc.StartForest(f)
	t.plans = t.plans[:0]
	for j := len(drawn) - 1; j >= 0; j-- {
		t.plans = append(t.plans, drawn[j])
	}
	b.enc.AppendForest(f, t.plans, candEnv)
	for i := len(batch) - 1; i >= 0; i-- {
		sm := train[batch[i]]
		envs := sm.Envs
		if !useEnv {
			envs = encoding.NoEnv()
		}
		t.plans = append(t.plans[:0], sm.Plan)
		b.enc.AppendForest(f, t.plans, envs)
	}

	L := len(b.layers)
	for len(t.of) <= L {
		t.of = append(t.of, nil)
		t.acts = append(t.acts, nn.Mat{})
	}
	for len(t.convs) < L {
		t.convs = append(t.convs, nn.Scratch{})
	}
	x := nn.Mat{R: f.Rows(), C: b.enc.Dim(), Data: f.Dense()}
	c.start(f)
	t.of[0], t.acts[0] = append(t.of[0][:0], c.of...), x
	for l, layer := range b.layers {
		c.next(f)
		t.convs[l].Reset()
		x = layer.ForwardInfer(&t.convs[l], x, c.self, c.left, c.right)
		t.of[l+1], t.acts[l+1] = append(t.of[l+1][:0], c.of...), x
	}

	P, h := t.nc+t.nd, x.C
	t.head.Reset()
	t.pooled = t.head.Mat(P, 3*h)
	t.argmax = grow(t.argmax, P*h)
	for u := 0; u < P; u++ {
		rows := c.rowsOf(f.PlanNodes(u))
		own := t.head.Mat(len(rows), h)
		nn.GatherRowsInto(own, 0, x, rows)
		dst := t.pooled.Data[u*3*h : (u+1)*3*h]
		nn.MeanRowsInto(dst[:h], own)
		nn.MaxRowsArgInto(dst[h:2*h], t.argmax[u*h:(u+1)*h], own)
		nn.SumRowsInto(dst[2*h:], own, 1.0/16)
	}
	t.emb = b.proj.ForwardInfer(&t.head, t.pooled)
	nn.ReLUInPlace(t.emb)

	e := t.emb.C
	t.edef = nn.Param(t.nd, e)
	for i := 0; i < t.nd; i++ {
		copy(t.edef.Data[i*e:(i+1)*e], t.embRow(t.defaultPlan(i)))
	}
	if t.nc == 0 {
		t.ecand = nil
		return t.edef, nil
	}
	t.ecand = nn.Param(t.nc, e)
	for j := 0; j < t.nc; j++ {
		copy(t.ecand.Data[j*e:(j+1)*e], t.embRow(t.nc-1-j))
	}
	return t.edef, nn.ConcatRows(t.edef, t.ecand)
}

// defaultPlan is the forest's plan index of the batch's default i.
func (t *tcnTrainer) defaultPlan(i int) int { return t.nc + t.nd - 1 - i }

func (t *tcnTrainer) embRow(u int) []float64 {
	return t.emb.Data[u*t.emb.C : (u+1)*t.emb.C]
}

// gradRow is the gradient the heads left at plan u's embedding.
func (t *tcnTrainer) gradRow(u int) []float64 {
	e := t.emb.C
	if u < t.nc {
		j := t.nc - 1 - u
		return t.ecand.Grad[j*e : (j+1)*e]
	}
	i := t.nc + t.nd - 1 - u
	return t.edef.Grad[i*e : (i+1)*e]
}

// backward adds the minibatch's gradient to every backbone parameter, from
// the gradient the heads' autograd backward left in the embedding leaves.
func (t *tcnTrainer) backward() {
	b, f := t.b, &t.forest
	P, e := t.nc+t.nd, t.emb.C
	h := b.proj.W.R / 3

	// The projection and its ReLU, one row per plan.
	t.dproj = grow(t.dproj, P*e)
	for u := 0; u < P; u++ {
		nn.ReLUBackwardInto(t.dproj[u*e:(u+1)*e], t.embRow(u), t.gradRow(u))
	}
	t.dpool = grow(t.dpool, P*3*h)
	b.proj.Backward(t.pooled, nn.Mat{R: P, C: e, Data: t.dproj[:P*e]}, nn.Mat{R: P, C: 3 * h, Data: t.dpool[:P*3*h]})

	// The pooling, into each plan's rows; then where each row's parent
	// gathered it, for the layers below.
	R := len(f.Nodes())
	t.dx = grow(t.dx, R*h)
	t.from = grow(t.from, R)
	for u, start := 0, 0; u < P; u++ {
		ids := f.PlanNodes(u)
		dx := nn.Mat{R: len(ids), C: h, Data: t.dx[start*h : (start+len(ids))*h]}
		nn.PoolBackwardInto(dx, t.dpool[u*3*h:(u+1)*3*h], t.argmax[u*h:(u+1)*h], 1.0/16)
		t.from[start] = -1
		for p, id := range ids {
			if l := f.Left[id]; l >= 0 {
				t.from[start+p+1] = (start+p)*3*h + h
				if f.Right[id] >= 0 {
					t.from[start+p+1+f.SubtreeLen(l)] = (start+p)*3*h + 2*h
				}
			}
		}
		start += len(ids)
	}
	L := len(b.layers)
	t.dpre = grow(t.dpre, R*h)
	t.reluBackward(t.dpre[:R*h], t.dx[:R*h], L, h)

	t.dg = grow(t.dg, R*3*h)
	for l := L; l >= 1; l-- {
		t.gatherLists(l - 1)
		var dg []float64
		if l > 1 {
			dg = t.dg[:R*3*h]
		}
		b.layers[l-1].Backward(&t.convs[l-1], t.acts[l-1], t.self, t.left, t.right, nn.Mat{R: R, C: h, Data: t.dpre[:R*h]}, dg)
		if l > 1 {
			t.inputBackward(l-1, h)
		}
	}
}

// reluBackward writes dst = the gradient at layer l's pre-activations, row
// by row, from dx, the gradient at its outputs.
func (t *tcnTrainer) reluBackward(dst, dx []float64, l, h int) {
	act, of := t.acts[l], t.of[l]
	for r, id := range t.forest.Nodes() {
		y := act.Data[of[id]*h : (of[id]+1)*h]
		nn.ReLUBackwardInto(dst[r*h:(r+1)*h], y, dx[r*h:(r+1)*h])
	}
}

// gatherLists lists, per row, the layer-l classes of the row's node and of
// its children: the rows of acts[l] the row's convolution one layer up read.
func (t *tcnTrainer) gatherLists(l int) {
	f, of := &t.forest, t.of[l]
	t.self, t.left, t.right = t.self[:0], t.left[:0], t.right[:0]
	for _, id := range f.Nodes() {
		t.self = append(t.self, of[id])
		t.left = append(t.left, classOf(of, f.Left[id]))
		t.right = append(t.right, classOf(of, f.Right[id]))
	}
}

// inputBackward turns dg, the gradient at the gathered inputs of layer l+1,
// into dpre, the gradient at layer l's pre-activations: a row's output
// gradient is its own block of dg, then its parent's block that gathered it
// (GatherConcat3's scatter order), and counts where the output is above zero.
// dg is read only there, which is where TreeConv.Backward wrote it.
func (t *tcnTrainer) inputBackward(l, h int) {
	act, of, w := t.acts[l], t.of[l], 3*h
	for r, id := range t.forest.Nodes() {
		y := act.Data[of[id]*h : (of[id]+1)*h]
		own := t.dg[r*w : r*w+h]
		var parent []float64
		if t.from[r] >= 0 {
			parent = t.dg[t.from[r] : t.from[r]+h]
		}
		dst := t.dpre[r*h : (r+1)*h]
		for j, v := range y {
			g := 0.0
			if v > 0 {
				g += own[j]
				if parent != nil {
					g += parent[j]
				}
			}
			dst[j] = g
		}
	}
}

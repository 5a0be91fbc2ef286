// Package xgb implements gradient-boosted regression trees from scratch —
// the XGBoost-style model used both as a cost-predictor baseline (§7.1) and
// as the project-selection Ranker (§6). Trees are grown greedily over
// quantile-binned feature histograms with second-order (grad/hess) gain, L2
// leaf regularization, and shrinkage.
package xgb

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Config are the booster hyperparameters (library-default flavored, per the
// paper's no-tuning protocol).
type Config struct {
	Trees          int
	MaxDepth       int
	LearningRate   float64
	Lambda         float64 // L2 leaf regularization
	Gamma          float64 // split gain threshold
	MinChildWeight float64 // min hessian sum per leaf
	Bins           int     // histogram bins per feature
}

// DefaultConfig mirrors common XGBoost defaults at simulator scale.
func DefaultConfig() Config {
	return Config{
		Trees:          50,
		MaxDepth:       5,
		LearningRate:   0.3,
		Lambda:         1,
		Gamma:          0,
		MinChildWeight: 1,
		Bins:           32,
	}
}

// node is one tree node in flattened form.
type node struct {
	feature int
	// threshold is a raw feature value; samples with value < threshold go
	// left.
	threshold   float64
	left, right int
	leaf        bool
	value       float64
}

type tree struct {
	nodes []node
}

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.leaf {
			return n.value
		}
		f := 0.0
		if n.feature < len(x) {
			f = x[n.feature]
		}
		if f < n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is a trained booster.
type Model struct {
	cfg   Config
	base  float64
	trees []*tree
	// binEdges[f] holds the bin upper edges for feature f.
	binEdges [][]float64
}

// Train fits a regression booster on X (n samples × d features) and targets
// y with squared loss.
func Train(cfg Config, x [][]float64, y []float64) *Model {
	if cfg.Trees <= 0 {
		cfg = DefaultConfig()
	}
	m := &Model{cfg: cfg}
	n := len(x)
	if n == 0 {
		return m
	}
	d := len(x[0])
	m.base = mean(y)
	m.binEdges = computeBins(x, cfg.Bins)

	// Pre-bin all samples.
	binned := make([][]uint8, n)
	for i := range x {
		binned[i] = make([]uint8, d)
		for f := 0; f < d; f++ {
			binned[i][f] = binOf(m.binEdges[f], x[i][f])
		}
	}

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	for t := 0; t < cfg.Trees; t++ {
		for i := range grad {
			grad[i] = pred[i] - y[i]
			hess[i] = 1
		}
		tr := &tree{}
		b := &builder{cfg: cfg, binned: binned, edges: m.binEdges, grad: grad, hess: hess, tree: tr}
		b.grow(all, 0)
		m.trees = append(m.trees, tr)
		for i := range pred {
			pred[i] += cfg.LearningRate * tr.predict(x[i])
		}
	}
	return m
}

// Predict returns the model output for one sample.
func (m *Model) Predict(x []float64) float64 {
	out := m.base
	for _, t := range m.trees {
		out += m.cfg.LearningRate * t.predict(x)
	}
	return out
}

// NumFeatures returns the width of the samples the booster was binned over.
func (m *Model) NumFeatures() int { return len(m.binEdges) }

// NumTrees returns how many trees were fit.
func (m *Model) NumTrees() int { return len(m.trees) }

// SizeBytes estimates the serialized model footprint.
func (m *Model) SizeBytes() int {
	total := 0
	for _, t := range m.trees {
		total += len(t.nodes) * 40 // feature, threshold, children, value
	}
	for _, e := range m.binEdges {
		total += len(e) * 8
	}
	return total
}

type builder struct {
	cfg    Config
	binned [][]uint8
	edges  [][]float64
	grad   []float64
	hess   []float64
	tree   *tree
}

// grow builds the subtree over the sample set and returns its node index.
func (b *builder) grow(samples []int, depth int) int {
	gSum, hSum := 0.0, 0.0
	for _, i := range samples {
		gSum += b.grad[i]
		hSum += b.hess[i]
	}
	leafValue := -gSum / (hSum + b.cfg.Lambda)

	idx := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, node{leaf: true, value: leafValue})
	if depth >= b.cfg.MaxDepth || len(samples) < 2 {
		return idx
	}

	bestGain := b.cfg.Gamma
	bestFeat, bestBin := -1, -1
	parentScore := gSum * gSum / (hSum + b.cfg.Lambda)
	d := len(b.binned[0])
	nBins := b.cfg.Bins

	gh := make([]float64, nBins)
	hh := make([]float64, nBins)
	for f := 0; f < d; f++ {
		for bi := 0; bi < nBins; bi++ {
			gh[bi], hh[bi] = 0, 0
		}
		for _, i := range samples {
			bi := int(b.binned[i][f])
			gh[bi] += b.grad[i]
			hh[bi] += b.hess[i]
		}
		gl, hl := 0.0, 0.0
		for bi := 0; bi < nBins-1; bi++ {
			gl += gh[bi]
			hl += hh[bi]
			gr, hr := gSum-gl, hSum-hl
			if hl < b.cfg.MinChildWeight || hr < b.cfg.MinChildWeight {
				continue
			}
			gain := 0.5 * (gl*gl/(hl+b.cfg.Lambda) + gr*gr/(hr+b.cfg.Lambda) - parentScore)
			if gain > bestGain {
				bestGain = gain
				bestFeat, bestBin = f, bi
			}
		}
	}
	if bestFeat < 0 {
		return idx
	}

	var left, right []int
	for _, i := range samples {
		if int(b.binned[i][bestFeat]) <= bestBin {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return idx
	}
	li := b.grow(left, depth+1)
	ri := b.grow(right, depth+1)
	b.tree.nodes[idx] = node{
		feature:   bestFeat,
		threshold: b.edgeValue(bestFeat, bestBin),
		left:      li,
		right:     ri,
	}
	return idx
}

// edgeValue returns the raw threshold between bin and bin+1.
func (b *builder) edgeValue(f, bin int) float64 {
	edges := b.edges[f]
	if bin < len(edges) {
		return edges[bin]
	}
	return math.Inf(1)
}

// computeBins derives quantile bin edges per feature. edges[f] has Bins-1
// upper edges; binOf maps a value to [0, Bins).
func computeBins(x [][]float64, bins int) [][]float64 {
	if bins < 2 {
		bins = 2
	}
	d := len(x[0])
	out := make([][]float64, d)
	vals := make([]float64, len(x))
	for f := 0; f < d; f++ {
		for i := range x {
			vals[i] = x[i][f]
		}
		sort.Float64s(vals)
		var edges []float64
		for b := 1; b < bins; b++ {
			q := vals[len(vals)*b/bins]
			if len(edges) == 0 || q > edges[len(edges)-1] {
				edges = append(edges, q)
			}
		}
		out[f] = edges
	}
	return out
}

// binOf maps a raw value to its bin under the given edges: the number of
// edges strictly less than or equal to it, capped at Bins-1 by construction
// (len(edges) <= Bins-1).
func binOf(edges []float64, v float64) uint8 {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if edges[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint8(lo)
}

func mean(y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range y {
		s += v
	}
	return s / float64(len(y))
}

// modelDTO is the serialized form of a Model.
type modelDTO struct {
	Config   Config      `json:"config"`
	Base     float64     `json:"base"`
	Trees    [][]nodeDTO `json:"trees"`
	BinEdges [][]float64 `json:"binEdges"`
}

type nodeDTO struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
	Leaf      bool    `json:"leaf"`
	Value     float64 `json:"v"`
}

// MarshalJSON serializes the trained booster.
func (m *Model) MarshalJSON() ([]byte, error) {
	dto := modelDTO{Config: m.cfg, Base: m.base, BinEdges: m.binEdges}
	for _, t := range m.trees {
		nodes := make([]nodeDTO, len(t.nodes))
		for i, n := range t.nodes {
			nodes[i] = nodeDTO{Feature: n.feature, Threshold: n.threshold, Left: n.left, Right: n.right, Leaf: n.leaf, Value: n.value}
		}
		dto.Trees = append(dto.Trees, nodes)
	}
	return json.Marshal(dto)
}

// UnmarshalJSON restores a trained booster, rejecting any tree predict could
// not walk: an empty one, a split on a negative feature, or children out of
// range or not after their parent (as grow numbers them; anything else is a
// stray index or a cycle). m is left untouched on error.
func (m *Model) UnmarshalJSON(data []byte) error {
	var dto modelDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return err
	}
	trees := make([]*tree, len(dto.Trees))
	for ti, nodes := range dto.Trees {
		if len(nodes) == 0 {
			return fmt.Errorf("xgb: tree %d is empty", ti)
		}
		t := &tree{nodes: make([]node, len(nodes))}
		for i, n := range nodes {
			if !n.Leaf && (n.Feature < 0 || n.Left <= i || n.Left >= len(nodes) || n.Right <= i || n.Right >= len(nodes)) {
				return fmt.Errorf("xgb: tree %d node %d of %d: split on feature %d, children %d and %d", ti, i, len(nodes), n.Feature, n.Left, n.Right)
			}
			t.nodes[i] = node{feature: n.Feature, threshold: n.Threshold, left: n.Left, right: n.Right, leaf: n.Leaf, value: n.Value}
		}
		trees[ti] = t
	}
	m.cfg, m.base, m.binEdges, m.trees = dto.Config, dto.Base, dto.BinEdges, trees
	return nil
}

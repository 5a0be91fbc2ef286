// Package cardinality propagates row counts through a physical plan.
//
// The same propagation rules run against two different inputs: the
// warehouse's hidden ground truth (producing the *true* cardinalities the
// execution simulator charges for) and the stats package's degraded view
// (producing the *estimated* cardinalities the native optimizer plans with).
// Challenge C2 of the paper is precisely the gap between the two.
package cardinality

import (
	"math"

	"loam/internal/expr"
	"loam/internal/plan"
	"loam/internal/stats"
	"loam/internal/warehouse"
)

// Source supplies the inputs the propagation rules need.
type Source struct {
	// Rows returns the row count of a base table.
	Rows func(tableID string) float64
	// Partitions returns the number of partitions of a base table.
	Partitions func(tableID string) int
	// Dist supplies predicate selectivities.
	Dist expr.DistProvider
	// NDV returns the distinct-value count of a column.
	NDV func(col expr.ColumnRef) float64
}

// TruthSource builds a Source over the warehouse ground truth as of a day.
func TruthSource(p *warehouse.Project, day int) Source {
	return Source{
		Rows: func(tableID string) float64 {
			if t := p.Table(tableID); t != nil {
				return float64(t.RowsAt(day))
			}
			return 1
		},
		Partitions: func(tableID string) int {
			if t := p.Table(tableID); t != nil && t.Partitions > 0 {
				return t.Partitions
			}
			return 1
		},
		Dist: &warehouse.Truth{Project: p},
		NDV: func(col expr.ColumnRef) float64 {
			if t := p.Table(col.Table); t != nil {
				if c := t.Column(col.Column); c != nil {
					return float64(c.NDV)
				}
			}
			return 100
		},
	}
}

// ViewSource builds a Source over an optimizer statistics view.
func ViewSource(v *stats.View) Source {
	return Source{
		Rows:       func(tableID string) float64 { return float64(v.RowEstimate(tableID)) },
		Partitions: func(tableID string) int { return v.PartitionEstimate(tableID) },
		Dist:       v,
		NDV:        func(col expr.ColumnRef) float64 { return float64(v.NDVEstimate(col)) },
	}
}

// Estimator computes per-node output cardinalities.
type Estimator struct {
	Src Source
	// CardScale multiplies the estimate of every sub-plan spanning at least
	// three base tables — the Lero-style exploration knob (§3, Plan
	// Explorer). 0 or 1 means no scaling.
	CardScale float64
}

// Result holds per-node output cardinalities for one plan.
type Result struct {
	cards map[*plan.Node]card
}

type card struct {
	rows   float64
	tables int
}

// NewResult returns an empty result sized for a plan of about size nodes,
// for callers that fill it node by node with Estimator.Add.
func NewResult(size int) *Result {
	return &Result{cards: make(map[*plan.Node]card, size)}
}

// Adopt records the cardinalities of n's subtree as src holds them — for a
// subtree whose estimate is the same under both results' estimators, such as
// a sub-plan of fewer than three tables under any CardScale.
func (r *Result) Adopt(src *Result, n *plan.Node) {
	r.cards[n] = src.cards[n]
	for _, c := range n.Children {
		r.Adopt(src, c)
	}
}

// Rows returns the output cardinality of a node (0 for unknown nodes).
func (r *Result) Rows(n *plan.Node) float64 { return r.cards[n].rows }

// BaseTables returns how many distinct base tables feed a node.
func (r *Result) BaseTables(n *plan.Node) int { return r.cards[n].tables }

// Estimate computes output cardinalities for every node under root: Add over
// the tree, children first.
func (e *Estimator) Estimate(root *plan.Node) *Result {
	res := NewResult(root.Size())
	e.addTree(res, root)
	return res
}

func (e *Estimator) addTree(res *Result, n *plan.Node) {
	if n == nil {
		return
	}
	for _, c := range n.Children {
		e.addTree(res, c)
	}
	e.Add(res, n)
}

// Add is the incremental step: it computes n's output cardinality from its
// children's — which must already be in res — records it and returns it. A
// planner that registers each node as it creates it therefore pays for every
// node once, however often it reads sub-plan sizes back while building.
func (e *Estimator) Add(res *Result, n *plan.Node) float64 {
	sel := 1.0
	if n.Op.IsFilterLike() {
		sel = expr.Selectivity(n.Pred, e.Src.Dist)
	}
	return e.AddFiltered(res, n, sel)
}

// AddFiltered is Add for a caller that already holds sel, the selectivity of
// n.Pred under e.Src.Dist (read only when n is filter-like) — selectivity is
// by far the dearest input, and a planner that builds many plans over the
// same table-local predicates evaluates each once.
func (e *Estimator) AddFiltered(res *Result, n *plan.Node, sel float64) float64 {
	tables := 0
	for _, c := range n.Children {
		tables += res.cards[c].tables
	}
	if n.Op == plan.OpTableScan {
		tables = 1
	}
	rows := e.output(res, n, sel)
	if e.CardScale > 0 && e.CardScale != 1 && tables >= 3 {
		rows *= e.CardScale
	}
	if rows < 1 {
		rows = 1
	}
	res.cards[n] = card{rows: rows, tables: tables}
	return rows
}

// in returns the recorded output of n's i-th child, or 1 when n has no such
// child.
func (r *Result) in(n *plan.Node, i int) float64 {
	if i < len(n.Children) {
		return r.cards[n.Children[i]].rows
	}
	return 1
}

func (e *Estimator) output(res *Result, n *plan.Node, sel float64) float64 {
	first := res.in(n, 0)
	switch {
	case n.Op == plan.OpTableScan:
		rows := e.Src.Rows(n.Table)
		parts := e.Src.Partitions(n.Table)
		if parts > 0 && n.PartitionsRead > 0 && n.PartitionsRead < parts {
			rows *= float64(n.PartitionsRead) / float64(parts)
		}
		return rows
	case n.Op.IsFilterLike():
		return first * sel
	case n.Op.IsJoin():
		return e.joinOutput(n, first, res.in(n, 1))
	case n.Op.IsAggregate():
		return e.aggOutput(n, first)
	case n.Op == plan.OpUnion:
		total := 0.0
		for _, c := range n.Children {
			total += res.cards[c].rows
		}
		return total
	case n.Op == plan.OpLimit || n.Op == plan.OpTopN:
		return math.Min(first, 10_000)
	case n.Op == plan.OpSample:
		return first * 0.01
	case n.Op == plan.OpValues:
		return 1
	case n.Op == plan.OpExpand:
		return first * 2
	default:
		// Exchange, Sort, Spool, Project, Window, Select, Sink... preserve
		// cardinality.
		return first
	}
}

func (e *Estimator) joinOutput(n *plan.Node, left, right float64) float64 {
	// Containment assumption: each equi-join pair contributes
	// 1/max(ndvL, ndvR).
	sel := 1.0
	for i := range n.LeftCols {
		ndvL := e.Src.NDV(n.LeftCols[i])
		ndvR := ndvL
		if i < len(n.RightCols) {
			ndvR = e.Src.NDV(n.RightCols[i])
		}
		m := math.Max(ndvL, ndvR)
		if m < 1 {
			m = 1
		}
		sel /= m
	}
	if len(n.LeftCols) == 0 {
		sel = 1 // cross join
	}
	out := left * right * sel
	switch n.JoinForm {
	case plan.JoinSemi:
		return math.Min(left, out)
	case plan.JoinAnti:
		v := left - math.Min(left, out)
		if v < 1 {
			v = 1
		}
		return v
	case plan.JoinLeft:
		return math.Max(out, left)
	case plan.JoinRight:
		return math.Max(out, right)
	case plan.JoinFull:
		return math.Max(out, left+right)
	default:
		return out
	}
}

func (e *Estimator) aggOutput(n *plan.Node, in float64) float64 {
	if len(n.GroupCols) == 0 {
		if n.Op == plan.OpDistinct {
			return math.Min(in, math.Sqrt(in)+1)
		}
		return 1 // scalar aggregate
	}
	groups := 1.0
	for _, c := range n.GroupCols {
		groups *= e.Src.NDV(c)
	}
	return math.Min(in, groups)
}

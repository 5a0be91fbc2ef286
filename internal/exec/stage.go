// Package exec simulates distributed plan execution: stage decomposition at
// reshuffle boundaries, Fuxi-style per-stage resource allocation, and a
// ground-truth CPU-cost model with environment sensitivity and log-normal
// noise — the paper's Figure 1 workflow, phases 2–4.
package exec

import (
	"math"

	"loam/internal/plan"
)

// Stage is one unit of scheduling: a maximal pipeline of operators between
// exchange boundaries. Children are the stages that must complete before
// this one becomes eligible (§2.1, phase 2).
type Stage struct {
	ID    int
	Root  *plan.Node
	Nodes []*plan.Node
	// Children are upstream stages feeding this one through exchanges.
	Children []*Stage
	// Instances is the number of parallel instances the stage runs with.
	Instances int
}

// Decomposition is a plan broken into its stage tree.
type Decomposition struct {
	Root   *Stage
	Stages []*Stage // topological order: children before parents
	// StageOf maps every plan node to its stage; all nodes of a stage share
	// one execution environment (§4).
	StageOf map[*plan.Node]*Stage
}

// Decompose splits a plan into stages. Exchange-type operators belong to the
// consumer stage (they model the reshuffle receive); their children start new
// stages.
func Decompose(root *plan.Node) *Decomposition {
	d := &Decomposition{StageOf: make(map[*plan.Node]*Stage, root.Size())}
	d.Root = d.build(root)
	return d
}

func (d *Decomposition) build(root *plan.Node) *Stage {
	s := &Stage{ID: -1}
	d.collect(root, s)
	// Assign IDs in topological (children-first) order.
	s.ID = len(d.Stages)
	d.Stages = append(d.Stages, s)
	return s
}

// collect walks a stage's pipeline, cutting at exchange children.
func (d *Decomposition) collect(n *plan.Node, s *Stage) {
	if n == nil {
		return
	}
	s.Nodes = append(s.Nodes, n)
	if s.Root == nil {
		s.Root = n
	}
	d.StageOf[n] = s
	for _, c := range n.Children {
		if n.Op.IsExchange() {
			// The exchange's producer side is a separate stage.
			child := d.build(c)
			s.Children = append(s.Children, child)
		} else {
			d.collect(c, s)
		}
	}
}

// maxInstances caps a stage's parallelism.
const maxInstances = 64

// sizeInstances derives a stage's instance count from the rows entering it.
// One instance per ~250k input rows, capped — mirroring MaxCompute's 1 to
// 100,000-instance range at reduced scale.
func sizeInstances(inputRows float64, hint int) int {
	if hint > 0 {
		return min(hint, maxInstances)
	}
	return min(max(int(math.Ceil(inputRows/250_000)), 1), maxInstances)
}

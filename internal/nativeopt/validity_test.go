package nativeopt_test

import (
	"testing"

	"loam/internal/experiments"
	"loam/internal/expr"
	"loam/internal/nativeopt"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/stats"
	"loam/internal/warehouse"
	"loam/internal/workload"
)

// validityCorpora is every query world the validity properties run over: the
// explorer's corpora, then one world per evaluation project's archetype and
// one of warehouse.DefaultArchetype, each with a query per template.
func validityCorpora() []nativeopt.Corpus {
	out := nativeopt.Corpora()
	world := func(name string, seed uint64, a warehouse.Archetype, w workload.Config, pol stats.Policy) nativeopt.Corpus {
		const day = 4
		p := warehouse.Generate(simrand.New(seed), a)
		g := workload.NewGenerator(simrand.New(seed+1), p, w)
		c := nativeopt.Corpus{Name: name, View: stats.Snapshot(simrand.New(seed+2), p, day, pol)}
		for _, tpl := range g.Templates {
			c.Queries = append(c.Queries, tpl.Instantiate(simrand.New(seed+3), day))
		}
		return c
	}
	for i, spec := range experiments.Default().EvalProjectSpecs() {
		out = append(out, world(spec.Name, 500+10*uint64(i), spec.Archetype, spec.Workload, spec.Stats))
	}
	return append(out, world("default", 600, warehouse.DefaultArchetype(), workload.DefaultConfig(), stats.DefaultPolicy()))
}

// conjuncts appends the top-level conjuncts of p.
func conjuncts(out []*expr.Node, p *expr.Node) []*expr.Node {
	switch {
	case p == nil:
		return out
	case p.Fn == expr.FuncAnd:
		for _, c := range p.Children {
			out = conjuncts(out, c)
		}
		return out
	}
	return append(out, p)
}

// checkValid reports the first way p is not a plan of q: a table of q not
// scanned exactly once or a table scanned that q does not name; a conjunct
// of an input's Pred or HardPred evaluated other than once, or one evaluated
// that no input holds; a join edge of q no join realizes, or a join that
// realizes none.
func checkValid(q *query.Query, p *plan.Plan) string {
	scans := map[string]int{}
	var preds []*expr.Node
	var joins []*plan.Node
	p.Root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpTableScan {
			scans[n.Table]++
		}
		preds = conjuncts(preds, n.Pred)
		if n.Op.IsJoin() {
			joins = append(joins, n)
		}
	})
	for _, t := range q.Tables {
		if scans[t] != 1 {
			return "table " + t + " is not scanned exactly once"
		}
		delete(scans, t)
	}
	for t := range scans {
		return "table " + t + " is scanned but not in the query"
	}
	for _, t := range q.Tables {
		in := q.Input(t)
		for _, c := range conjuncts(conjuncts(nil, in.Pred), in.HardPred) {
			i := indexEqual(preds, c)
			if i < 0 {
				return "a conjunct of " + t + "'s input is not evaluated once"
			}
			preds = append(preds[:i], preds[i+1:]...)
		}
	}
	if len(preds) > 0 {
		return "the plan evaluates a conjunct no input holds, or one twice"
	}
	for _, e := range q.Joins {
		i := -1
		for k, j := range joins {
			if realizes(j, e) {
				i = k
				break
			}
		}
		if i < 0 {
			return droppedEdge
		}
		joins = append(joins[:i], joins[i+1:]...)
	}
	if len(joins) > 0 {
		return "a join realizes no edge of the query"
	}
	return ""
}

// droppedEdge is checkValid's finding for a join edge no join realizes.
const droppedEdge = "a join edge of the query is not realized"

// knownDropped lists the queries whose plannings drop a join edge today, the
// one finding of TestSessionPlansAreValid: baseOrder's greedy order may
// cross-join two tables (here t042 and t007, each filtered to a row or two)
// before the table joining both (t037), and findEdge then realizes one of
// t037's two edges, so the plan loses the equality t037.c01 = t007.c11.
// Fixing it moves plans, so the choices digests; until then the test pins
// exactly these queries, and fails on any other dropped edge and once they
// keep every edge.
var knownDropped = map[string]bool{"project1 project1.tpl008.q000001": true}

func indexEqual(list []*expr.Node, c *expr.Node) int {
	for i, x := range list {
		if x.Equal(c) {
			return i
		}
	}
	return -1
}

// realizes reports whether join j equates e's two columns, in either order.
func realizes(j *plan.Node, e query.JoinEdge) bool {
	if len(j.LeftCols) != 1 || len(j.RightCols) != 1 {
		return false
	}
	l, r := j.LeftCols[0], j.RightCols[0]
	return l == e.LeftCol && r == e.RightCol || l == e.RightCol && r == e.LeftCol
}

// TestSessionPlansAreValid checks every plan a Session emits — under every
// steering setting and card scale the differential tests plan, as the
// planning returns it and as Keep copies it out — over the explorer's
// corpora and a world per warehouse archetype: each query table is scanned
// once, every conjunct of every input's Pred and HardPred is evaluated once
// and nothing else is, every join edge is realized by a join of its own, and
// a Clone of the plan is Equal to it with the same CacheFingerprint. A
// failure is a defect of the optimizer to report, not a property to relax;
// the one it has found is pinned in knownDropped.
func TestSessionPlansAreValid(t *testing.T) {
	plans := 0
	dropped := map[string]int{}
	for _, w := range validityCorpora() {
		for _, q := range w.Queries {
			s := nativeopt.NewSession(w.View, q)
			for _, f := range nativeopt.SteeringFlags() {
				for _, scale := range nativeopt.DiffScales {
					p, _ := s.Plan(f, scale)
					kept := s.Keep(p)
					for _, pl := range []*plan.Plan{p, kept} {
						why := checkValid(q, pl)
						if why == droppedEdge && knownDropped[w.Name+" "+q.ID] {
							dropped[w.Name+" "+q.ID]++
						} else if why != "" {
							t.Fatalf("%s %s %v scale %g: %s\n%v", w.Name, q.ID, f.Knobs(), scale, why, pl)
						}
						c := pl.Clone()
						if !c.Root.Equal(pl.Root) || c.CacheFingerprint() != pl.CacheFingerprint() {
							t.Fatalf("%s %s %v scale %g: a Clone is not Equal to the plan, or fingerprints otherwise", w.Name, q.ID, f.Knobs(), scale)
						}
					}
					if !kept.Root.Equal(p.Root) {
						t.Fatalf("%s %s %v scale %g: Keep's copy is not Equal to the plan", w.Name, q.ID, f.Knobs(), scale)
					}
					plans++
				}
			}
		}
	}
	for id := range knownDropped {
		if dropped[id] == 0 {
			t.Errorf("%s keeps every join edge now: take it out of knownDropped", id)
		}
	}
	t.Logf("%d plannings checked; %v dropped a join edge (knownDropped)", plans, dropped)
}

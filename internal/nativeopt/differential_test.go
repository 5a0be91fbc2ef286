package nativeopt

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"loam/internal/cardinality"
	"loam/internal/exec"
	"loam/internal/expr"
	"loam/internal/floatsafe"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/internal/simrand"
	"loam/internal/stats"
	"loam/internal/warehouse"
	"loam/internal/workload"
)

// diffWorld is one project-shaped world of the differential tests: a
// generated catalog, a statistics view and one query per template.
type diffWorld struct {
	name    string
	project *warehouse.Project
	view    *stats.View
	queries []*query.Query
}

// diffDay is the day every differential world is snapshotted and queried at.
const diffDay = 4

// diffWorlds builds the two shapes the evaluation leans on: project1 (many
// narrow tables, mostly fresh column statistics, 2–5 tables per query) and
// project2 (few wide tables, column statistics mostly missing, 3–6 tables) —
// and the queries neither has: one or two tables, where no card scale can act
// and a lone table has no join to defer a predicate to.
func diffWorlds() []diffWorld {
	shape := func(name string, seed uint64, tables, cols int, rowsMean, rowsStd float64,
		pol stats.Policy, minT, maxT int, pushDifficult float64) diffWorld {
		a := warehouse.DefaultArchetype()
		a.Name = name
		a.NumTables = tables
		a.ColumnsPerTable = cols
		a.RowsLog10Mean = rowsMean
		a.RowsLog10Std = rowsStd
		p := warehouse.Generate(simrand.New(seed), a)
		w := workload.DefaultConfig()
		w.NumTemplates = 40
		w.MinTables, w.MaxTables = minT, maxT
		w.PushDifficultProb = pushDifficult
		g := workload.NewGenerator(simrand.New(seed+1), p, w)
		out := diffWorld{name: name, project: p, view: stats.Snapshot(simrand.New(seed+2), p, diffDay, pol)}
		for _, tpl := range g.Templates {
			out.queries = append(out.queries, tpl.Instantiate(simrand.New(seed+3), diffDay))
		}
		return out
	}
	moderate := stats.Policy{ColumnStatsProb: 0.85, FreshProb: 0.85, MaxStalenessDays: 10, NDVNoise: 0.2}
	degraded := stats.Policy{ColumnStatsProb: 0.38, FreshProb: 0.30, MaxStalenessDays: 25, NDVNoise: 0.8}
	return []diffWorld{
		shape("project1", 101, 60, 14, 4.7, 0.9, moderate, 2, 5, 0.25),
		shape("project2", 202, 30, 6, 6.2, 0.7, degraded, 3, 6, 0.55),
		shape("small", 303, 20, 12, 5.0, 1.0, degraded, 1, 2, 0.7),
	}
}

// steeringFlags are the default, the six single flags and the fifteen pairs.
func steeringFlags() []Flags {
	var out []Flags
	for mask := 0; mask < 1<<6; mask++ {
		f := Flags{
			MergeJoin:      mask&1 != 0,
			BroadcastJoin:  mask&2 != 0,
			ShuffleCombine: mask&4 != 0,
			SpoolEager:     mask&8 != 0,
			FilterPushdown: mask&16 != 0,
			DopHigh:        mask&32 != 0,
		}
		if len(f.Knobs()) <= 2 {
			out = append(out, f)
		}
	}
	return out
}

var diffScales = []float64{0, 0.1, 0.2, 0.5, 2, 5, 10}

// TestIncrementalRowsMatchWholeTreeEstimate plans every template of both
// worlds under every steering setting through ONE session per query and
// checks, at Float64bits, that the rows and base-table counts the builder
// registered node by node — by slot, in the session's dense stores, from
// memoized selectivities — are what a fresh whole-tree Estimate computes for
// the finished plan, for every node, under both the unscaled estimator (which
// ranks) and the scaled one (which sizes), in the first planning and in every
// later one, whose nodes take slots after those earlier plannings numbered;
// that every sizing decision in the finished tree is the one the fresh
// estimate it sized by calls for (misSized; on scaled plannings the unscaled
// rows must call for another one somewhere, or reading the wrong store would
// go unseen); that no two nodes of a plan share a slot; that the rough cost
// that fell out of the planning is the one a fresh RoughCost computes; that
// the plan is the plan a fresh optimizer builds; and that every third plan,
// held, is still Equal to it with its fingerprint once the query's other 150
// plannings have been built.
func TestIncrementalRowsMatchWholeTreeEstimate(t *testing.T) {
	flags := steeringFlags()
	if len(flags) != 22 {
		t.Fatalf("%d steering flag sets, want 1+6+15", len(flags))
	}
	type held struct {
		f     Flags
		scale float64
		p     *plan.Plan
		fp    uint64
	}
	scaleDecided := 0
	for _, w := range diffWorlds() {
		sizes := map[int]int{}
		for _, q := range w.queries {
			sizes[len(q.Tables)]++
			s := NewSession(w.view, q)
			var hold []held
			planned := 0
			for _, scale := range diffScales {
				for _, f := range flags {
					p, _ := s.Plan(f, scale)
					rough := s.RoughCost(p)

					plain := &cardinality.Estimator{Src: cardinality.ViewSource(w.view)}
					unscaled := plain.Estimate(p.Root)
					sameRows(t, w.name, q, "unscaled", p.Root, s.cards, unscaled)
					sizing := unscaled
					if scales(scale) {
						scaled := &cardinality.Estimator{Src: plain.Src, CardScale: scale}
						sizing = scaled.Estimate(p.Root)
						sameRows(t, w.name, q, "scaled", p.Root, s.scaled, sizing)
						if misSized(p.Root, f, w.view, unscaled) != nil {
							scaleDecided++
						}
					}
					if n := misSized(p.Root, f, w.view, sizing); n != nil {
						t.Fatalf("%s %s %v scale %g: the %s over %v is not what its estimated rows call for:\n%s",
							w.name, q.ID, f.Knobs(), scale, n.Op, n.Tables(), p)
					}
					slots := map[int32]plan.OpType{}
					p.Root.Walk(func(n *plan.Node) {
						if op, dup := slots[n.Slot]; dup || n.Slot == 0 {
							t.Fatalf("%s %s: %s has slot %d, like %s", w.name, q.ID, n.Op, n.Slot, op)
						}
						slots[n.Slot] = n.Op
					})
					fresh := planScaled(w.view, q, f, scale)
					if p.Root.Fingerprint() != fresh.Root.Fingerprint() || p.String() != fresh.String() {
						t.Fatalf("%s %s %v scale %g: session plan differs from a fresh optimizer's:\n%s\nvs\n%s",
							w.name, q.ID, f, scale, p, fresh)
					}
					if want := New(w.view).RoughCost(p); math.Float64bits(rough) != math.Float64bits(want) {
						t.Fatalf("%s %s %v scale %g: planning's rough cost %v, fresh RoughCost %v",
							w.name, q.ID, f, scale, rough, want)
					}
					if planned++; planned%3 == 1 {
						hold = append(hold, held{f, scale, p, p.Root.Fingerprint()})
					}
				}
			}
			for _, k := range hold {
				fresh := planScaled(w.view, q, k.f, k.scale)
				if !k.p.Root.Equal(fresh.Root) || k.p.Root.Fingerprint() != k.fp {
					t.Fatalf("%s %s %v scale %g: a held plan changed as later plannings were built:\n%s\nvs\n%s",
						w.name, q.ID, k.f, k.scale, k.p, fresh)
				}
			}
		}
		t.Logf("%s: %d queries, tables per query %v", w.name, len(w.queries), sizes)
	}
	t.Logf("%d scaled plannings decided by their scaled rows where unscaled ones call for another plan", scaleDecided)
	if scaleDecided == 0 {
		t.Fatal("no scaled planning's decisions depend on scaled rows: the sizing audit of scaled plannings compared nothing")
	}
}

// misSized re-derives, from the rows est holds for the finished tree, each
// sizing decision the builder took — nested loop, broadcast or shuffle and
// which side builds at a keyed join, eager or lazy spool, combine before the
// shuffle at a grouped aggregate — and returns the first node that disagrees
// with them, or nil. The rules are the builder's, restated.
func misSized(root *plan.Node, f Flags, v *stats.View, est *cardinality.Result) *plan.Node {
	below := func(n *plan.Node) (*plan.Node, plan.OpType) { // the input under an exchange the decision added
		if n.Op.IsExchange() {
			return n.Children[0], n.Op
		}
		return n, 0
	}
	var bad *plan.Node
	root.Walk(func(n *plan.Node) {
		ok := true
		switch {
		case n.Op.IsJoin() && len(n.LeftCols) > 0:
			l, lx := below(n.Children[0])
			r, rx := below(n.Children[1])
			lRows, rRows := est.Rows(l), est.Rows(r)
			threshold := float64(broadcastThresholdDefault)
			if f.BroadcastJoin {
				threshold = broadcastThresholdFlagged
			}
			switch {
			case lRows < nestedLoopThreshold && rRows < nestedLoopThreshold:
				ok = lx == 0 && rx == 0
			case rRows < threshold:
				ok = lx == 0 && rx == plan.OpBroadcastExchange
			default:
				ok = lx == plan.OpExchange && rx == plan.OpExchange
				if n.Op != plan.OpSemiJoin && n.Op != plan.OpAntiJoin {
					ok = ok && (n.Op == plan.OpMergeJoin) == (rRows > mergeJoinThreshold || f.MergeJoin)
				}
			}
			ok = ok && (!swappable(n.JoinForm) || lRows >= rRows)
		case n.Op == plan.OpSpool || n.Op == plan.OpLazySpool:
			ok = (n.Op == plan.OpSpool) == (est.Rows(n.Children[0]) > spoolThreshold || f.SpoolEager)
		case n.Op.IsAggregate() && len(n.GroupCols) > 0 && n.Op != plan.OpFinalAggregate:
			input, _ := below(n.Children[0])
			groups := 1.0
			for _, c := range n.GroupCols {
				groups *= float64(v.NDVEstimate(c))
			}
			ok = (n.Op == plan.OpPartialAggregate) == (groups*combineRatio < est.Rows(input) || f.ShuffleCombine)
		}
		if !ok && bad == nil {
			bad = n
		}
	})
	return bad
}

// singleFlags are the six flags, one set each, in Flags field order.
var singleFlags = [...]Flags{
	{MergeJoin: true}, {BroadcastJoin: true}, {ShuffleCombine: true},
	{SpoolEager: true}, {FilterPushdown: true}, {DopHigh: true},
}

// TestDecisiveFlagsExact checks the rule the explorer prunes by, in both
// directions, for every template of every world: planned on top of the default
// and of every single flag, a flag outside the planning's decisive set
// rebuilds that planning's plan — same tree, same cost bits, same decisive
// set, which is what lets the explorer take an unplanned single's set from the
// default (soundness: a skipped setting is always a duplicate) — and a flag
// inside it builds a different plan (tightness: a decision point that
// over-reports costs plannings and fails here). Below three tables every card
// scale rebuilds the unscaled plan. A decision point that stops reporting
// turns plans that differ into "skipped", and fails the first direction —
// provided the worlds hold queries it decides on, which the counts assert.
func TestDecisiveFlagsExact(t *testing.T) {
	decided, inert := map[Flags]int{}, map[Flags]int{}
	unscalable := 0
	for _, w := range diffWorlds() {
		for _, q := range w.queries {
			s := NewSession(w.view, q)
			bases := append([]Flags{{}}, singleFlags[:]...)
			for _, f := range bases {
				p, decisive := s.Plan(f, 0)
				baseCost := s.RoughCost(p)
				base := p
				for _, x := range singleFlags {
					if f.Union(x) == f {
						continue
					}
					p, got := s.Plan(f.Union(x), 0)
					cost := s.RoughCost(p)
					same := p.Root.Equal(base.Root)
					if same != (p.Root.Fingerprint() == base.Root.Fingerprint()) {
						t.Fatalf("%s %s %v+%v: Equal %v, fingerprints disagree", w.name, q.ID, f.Knobs(), x.Knobs(), same)
					}
					if decisive.Union(x) != decisive { // x did not decide
						if f == (Flags{}) {
							inert[x]++
						}
						if !same || math.Float64bits(cost) != math.Float64bits(baseCost) || got != decisive {
							t.Fatalf("%s %s: %v is outside the decisive set %v of planning %v, yet adding it plans (decisive %v)\n%s\nnot\n%s",
								w.name, q.ID, x.Knobs(), decisive.Knobs(), f.Knobs(), got.Knobs(), p, base)
						}
					} else {
						if f == (Flags{}) {
							decided[x]++
						}
						if same {
							t.Fatalf("%s %s: %v is in the decisive set %v of planning %v, yet adding it rebuilds the plan\n%s",
								w.name, q.ID, x.Knobs(), decisive.Knobs(), f.Knobs(), base)
						}
					}
				}
				if !s.Scales() {
					unscalable++
					for _, scale := range diffScales {
						p, got := s.Plan(f, scale)
						cost := s.RoughCost(p)
						if !p.Root.Equal(base.Root) || math.Float64bits(cost) != math.Float64bits(baseCost) || got != decisive {
							t.Fatalf("%s %s %v: %d tables, yet scale %g plans\n%s\nnot\n%s",
								w.name, q.ID, f.Knobs(), len(q.Tables), scale, p, base)
						}
					}
				}
			}
		}
	}
	for _, x := range singleFlags {
		t.Logf("%v: decides the default planning of %d queries, inert on %d", x.Knobs(), decided[x], inert[x])
		if decided[x] == 0 {
			t.Fatalf("%v never decided: its decision point's soundness went unchecked", x.Knobs())
		}
	}
	if len(inert) == 0 || unscalable == 0 {
		t.Fatalf("%d flags ever inert, %d unscalable plannings: the rule never skipped", len(inert), unscalable)
	}
}

// TestSharedScansNeverAlias drives one session per query the way no explorer
// would — twenty rounds over ten settings, one plan in three held — and then
// holds every plan it held to the contract: it is still the plan a fresh
// optimizer builds for its setting (no later planning wrote a node it holds:
// not a shared scan, not a node of its own), no node sits at two positions of
// one plan, and what two plans do share is scan subplans only.
func TestSharedScansNeverAlias(t *testing.T) {
	type setting struct {
		f     Flags
		scale float64
	}
	settings := []setting{{}, {scale: 0.2}, {scale: 0.5}, {scale: 5}}
	for _, f := range singleFlags {
		settings = append(settings, setting{f: f})
	}
	shared := 0
	for _, w := range diffWorlds() {
		for _, q := range w.queries {
			type held struct {
				setting
				p *plan.Plan
			}
			var hold []held
			s := NewSession(w.view, q)
			for round := 0; round < 20; round++ {
				for i, st := range settings {
					p, _ := s.Plan(st.f, st.scale)
					if (round+i)%3 == 0 {
						hold = append(hold, held{st, p})
					}
				}
			}
			owner := map[*plan.Node]*plan.Plan{}
			for _, k := range hold {
				fresh := planScaled(w.view, q, k.f, k.scale)
				if !k.p.Root.Equal(fresh.Root) || k.p.String() != fresh.String() {
					t.Fatalf("%s %s %v scale %g: the held plan is no longer its setting's plan:\n%s\nvs\n%s",
						w.name, q.ID, k.f.Knobs(), k.scale, k.p, fresh)
				}
				var visit func(n *plan.Node, inScan bool)
				visit = func(n *plan.Node, inScan bool) {
					switch owner[n] {
					case k.p:
						t.Fatalf("%s %s %v scale %g: %s is at two positions of one plan", w.name, q.ID, k.f.Knobs(), k.scale, n.Op)
					case nil:
						owner[n] = k.p
					default:
						shared++
						inScan = true
						if tables := n.Tables(); len(tables) != 1 || !(n.Op == plan.OpTableScan || n.Op.IsFilterLike()) {
							t.Fatalf("%s %s: two plans share a %s over %v: only scan subplans are shared", w.name, q.ID, n.Op, tables)
						}
						owner[n] = k.p
					}
					if inScan && len(n.Children) > 1 {
						t.Fatalf("%s %s: a shared subtree joins", w.name, q.ID)
					}
					for _, c := range n.Children {
						visit(c, inScan)
					}
				}
				visit(k.p.Root, false)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two held plans shared a node: the sharing contract went unchecked")
	}
}

// TestPlansStayAsBuilt: one session per query plans every setting — the
// default, the six single flags and the fifteen pairs, unscaled and at every
// scale from 0.1 to 10 — and holds each plan with its fingerprint and a Clone.
// After the last planning every plan is still Equal to its Clone and keeps
// its fingerprint, and no node but a shared scan subplan's is in two
// plannings: each planning built its nodes in storage of its own. A planner
// that builds a plan's root over the previous planning's, as a reused scratch
// would, fails the same check.
func TestPlansStayAsBuilt(t *testing.T) {
	plannings := 0
	for _, w := range diffWorlds() {
		for _, q := range w.queries {
			s := NewSession(w.view, q)
			why := plansStayAsBuilt(s, func(f Flags, scale float64) *plan.Plan {
				p, _ := s.Plan(f, scale)
				return p
			})
			if why != "" {
				t.Fatalf("%s %s: %s", w.name, q.ID, why)
			}
			plannings += len(steeringFlags()) * len(diffScales)
		}
	}
	t.Logf("%d plannings held", plannings)

	w := diffWorlds()[0]
	s := NewSession(w.view, w.queries[0])
	var last *plan.Node
	reusing := func(f Flags, scale float64) *plan.Plan {
		p, _ := s.Plan(f, scale)
		if last != nil {
			*last, p.Root = *p.Root, last
		}
		last = p.Root
		return p
	}
	if why := plansStayAsBuilt(s, reusing); why == "" {
		t.Fatal("a root reused across plannings went unseen")
	} else {
		t.Logf("seeded reuse: %s", why)
	}
}

// plansStayAsBuilt plans every steering setting through planning, holds each
// plan, and reports the first node outside s's scan subplans that two
// plannings hold, or the first held plan that is no longer as it was built;
// "" if none.
func plansStayAsBuilt(s *Session, planning func(Flags, float64) *plan.Plan) string {
	type held struct {
		f        Flags
		scale    float64
		p, clone *plan.Plan
		fp       uint64
	}
	var all []held
	for _, scale := range diffScales {
		for _, f := range steeringFlags() {
			p := planning(f, scale)
			all = append(all, held{f, scale, p, p.Clone(), p.Root.Fingerprint()})
		}
	}
	scan := map[*plan.Node]bool{}
	for _, root := range s.scans {
		root.Walk(func(n *plan.Node) { scan[n] = true })
	}
	owner := map[*plan.Node]int{}
	var why string
	for i, h := range all {
		h.p.Root.Walk(func(n *plan.Node) {
			if scan[n] || why != "" {
				return
			}
			if j, seen := owner[n]; seen {
				why = fmt.Sprintf("a %s is in planning %d (%v scale %g) and planning %d (%v scale %g)",
					n.Op, j, all[j].f.Knobs(), all[j].scale, i, h.f.Knobs(), h.scale)
			}
			owner[n] = i
		})
	}
	if why != "" {
		return why
	}
	for _, h := range all {
		if !h.p.Root.Equal(h.clone.Root) || h.p.Root.Fingerprint() != h.fp {
			return fmt.Sprintf("%v scale %g: the plan changed after it was built:\n%s\nwas\n%s", h.f.Knobs(), h.scale, h.p, h.clone)
		}
	}
	return ""
}

func sameRows(t *testing.T, world string, q *query.Query, which string, root *plan.Node, got, want *cardinality.Result) {
	t.Helper()
	root.Walk(func(n *plan.Node) {
		g, w := got.Rows(n), want.Rows(n)
		if math.Float64bits(g) != math.Float64bits(w) || got.BaseTables(n) != want.BaseTables(n) {
			t.Fatalf("%s %s: %s rows of %s: incremental %v (%d tables), whole-tree %v (%d tables)",
				world, q.ID, which, n.Op, g, got.BaseTables(n), w, want.BaseTables(n))
		}
	})
}

// TestSessionMatchesPerPlanningReference pins what a session shares across
// settings against the per-planning algorithm it replaced, restated here:
// filtered base rows through FullPred's conjoined tree, and the greedy join
// order over name-keyed maps followed by the card-scale rotation.
func TestSessionMatchesPerPlanningReference(t *testing.T) {
	for _, w := range diffWorlds() {
		greedy := 0
		for _, q := range w.queries {
			s := NewSession(w.view, q)
			for i, name := range q.Tables {
				want := refFilteredRows(w.view, q, name)
				if got := s.filteredRows(i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s table %s: filtered rows %v, reference %v", w.name, q.ID, name, got, want)
				}
			}
			if len(q.Tables) > 2 && s.allStats() {
				greedy++
			}
			for _, scale := range diffScales {
				want := refJoinOrder(w.view, q, scale)
				got := s.scaleRotate(s.base, scale)
				if len(got) != len(want) {
					t.Fatalf("%s %s scale %g: order %v, reference %v", w.name, q.ID, scale, got, want)
				}
				for i := range got {
					if q.Tables[got[i]] != want[i] {
						t.Fatalf("%s %s scale %g: order %v, reference %v", w.name, q.ID, scale, got, want)
					}
				}
			}
		}
		t.Logf("%s: %d of %d queries reorder greedily", w.name, greedy, len(w.queries))
		if w.name == "project1" && greedy == 0 {
			t.Fatal("no query took the greedy path: the join-order reference compared only syntactic orders")
		}
	}
}

func refFilteredRows(v *stats.View, q *query.Query, table string) float64 {
	rows := float64(v.RowEstimate(table))
	in := q.Input(table)
	if in.PartitionFrac < 1 {
		rows *= in.PartitionFrac
	}
	if full := in.FullPred(); full != nil {
		rows *= expr.Selectivity(full, v)
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

func refFindEdge(q *query.Query, joined map[string]bool, t string) (query.JoinEdge, bool) {
	for _, j := range q.Joins {
		if j.LeftTable == t && joined[j.RightTable] {
			return query.JoinEdge{LeftTable: j.RightTable, RightTable: j.LeftTable, LeftCol: j.RightCol, RightCol: j.LeftCol}, true
		}
		if j.RightTable == t && joined[j.LeftTable] {
			return j, true
		}
	}
	return query.JoinEdge{}, false
}

func refJoinOrder(v *stats.View, q *query.Query, cardScale float64) []string {
	tables := q.Tables
	allStats := true
	for _, t := range tables {
		allStats = allStats && v.HasColumnStats(t)
	}
	order := tables
	if len(tables) > 2 && allStats {
		remaining := map[string]bool{}
		estRows := map[string]float64{}
		for _, t := range tables {
			remaining[t] = true
			estRows[t] = refFilteredRows(v, q, t)
		}
		first := tables[0]
		for _, t := range tables[1:] {
			if floatsafe.Less(estRows[t], estRows[first]) {
				first = t
			}
		}
		order = []string{first}
		delete(remaining, first)
		joined := map[string]bool{first: true}
		size := estRows[first]
		for len(remaining) > 0 {
			bestTable, bestSize := "", math.Inf(1)
			for t := range remaining {
				s := size * estRows[t]
				if edge, connected := refFindEdge(q, joined, t); connected {
					ndv := math.Max(float64(v.NDVEstimate(edge.LeftCol)), float64(v.NDVEstimate(edge.RightCol)))
					if ndv < 1 {
						ndv = 1
					}
					s = size * estRows[t] / ndv
				}
				if s < bestSize || (s == bestSize && t < bestTable) {
					bestSize, bestTable = s, t
				}
			}
			order = append(order, bestTable)
			joined[bestTable] = true
			delete(remaining, bestTable)
			size = math.Max(1, bestSize)
		}
	}
	if cardScale <= 0 || cardScale == 1 || len(order) < 3 {
		return order
	}
	start := 2 % len(order)
	switch {
	case cardScale < 0.3:
		start = len(order) - 1
	case cardScale < 1:
		start = 1 % len(order)
	}
	joined := map[string]bool{order[start]: true}
	out := []string{order[start]}
	for len(out) < len(order) {
		next := ""
		for _, t := range order {
			if joined[t] {
				continue
			}
			if _, connected := refFindEdge(q, joined, t); connected {
				next = t
				break
			}
		}
		if next == "" {
			for _, t := range order {
				if !joined[t] {
					next = t
					break
				}
			}
		}
		joined[next] = true
		out = append(out, next)
	}
	return out
}

// repeatOf deep-copies q — slices, inputs, predicates — under another ID and
// day: a repeat request, a distinct *query.Query with an equal planning key.
func repeatOf(q *query.Query) *query.Query {
	c := *q
	c.ID += "-repeat"
	c.Day++
	c.Tables = slices.Clone(q.Tables)
	c.Joins = slices.Clone(q.Joins)
	c.GroupBy = slices.Clone(q.GroupBy)
	c.Aggs = slices.Clone(q.Aggs)
	c.Inputs = make(map[string]*query.TableInput, len(q.Inputs))
	for name, in := range q.Inputs {
		cp := *in
		cp.Pred, cp.HardPred = in.Pred.Clone(), in.HardPred.Clone()
		c.Inputs[name] = &cp
	}
	return &c
}

// sameNodeRows walks two plans Equal in structure side by side and fails at
// the first node whose rows or base-table count in got differ, at
// Float64bits, from its twin's in want.
func sameNodeRows(t *testing.T, label string, g, w *plan.Node, got, want *cardinality.Result) {
	t.Helper()
	if math.Float64bits(got.Rows(g)) != math.Float64bits(want.Rows(w)) || got.BaseTables(g) != want.BaseTables(w) {
		t.Fatalf("%s: %s rows %v (%d tables), fresh session %v (%d tables)",
			label, g.Op, got.Rows(g), got.BaseTables(g), want.Rows(w), want.BaseTables(w))
	}
	for i := range g.Children {
		sameNodeRows(t, label, g.Children[i], w.Children[i], got, want)
	}
}

// TestResumedSessionPlansAsFresh: a session resumed from the estimates of
// another session of the query — under a repeat of the query that shares no
// pointer with it — plans every setting, over every template of every world,
// to the plan NewSession's session plans: Equal, with the same knobs and
// decisive set, every node's rows (and, scaling, scaled rows) the same bits,
// and the same rough cost bits. Its own estimates are the ones it resumed
// from. Estimates of another view, or of a query of another shape, panic.
func TestResumedSessionPlansAsFresh(t *testing.T) {
	worlds := diffWorlds()
	deferring, greedy := 0, 0
	for _, w := range worlds {
		for _, q := range w.queries {
			est := NewSession(w.view, q).Estimates()
			rq := repeatOf(q)
			if string(rq.AppendPlanningKey(nil)) != string(q.AppendPlanningKey(nil)) {
				t.Fatalf("%s %s: the repeat's planning key differs", w.name, q.ID)
			}
			resumed, fresh := ResumeSession(w.view, rq, &est), NewSession(w.view, q)
			if !reflect.DeepEqual(resumed.Estimates(), est) {
				t.Fatalf("%s %s: the resumed session's estimates are not the ones it resumed from", w.name, q.ID)
			}
			for i := range fresh.tables {
				if fresh.tables[i].defers {
					deferring++
				}
			}
			if !slices.Equal(fresh.base, identity(len(q.Tables))) {
				greedy++
			}
			for _, scale := range diffScales {
				for _, f := range steeringFlags() {
					label := fmt.Sprintf("%s %s %v scale %g", w.name, q.ID, f.Knobs(), scale)
					rp, rdecisive := resumed.Plan(f, scale)
					fp, fdecisive := fresh.Plan(f, scale)
					if !rp.Root.Equal(fp.Root) || !slices.Equal(rp.Knobs, fp.Knobs) || rdecisive != fdecisive {
						t.Fatalf("%s: the resumed session plans\n%s\n(decisive %v), the fresh one\n%s\n(decisive %v)",
							label, rp, rdecisive.Knobs(), fp, fdecisive.Knobs())
					}
					sameNodeRows(t, label+" unscaled", rp.Root, fp.Root, resumed.cards, fresh.cards)
					if scales(scale) {
						sameNodeRows(t, label+" scaled", rp.Root, fp.Root, resumed.scaled, fresh.scaled)
					}
					if r, f := resumed.RoughCost(rp), fresh.RoughCost(fp); math.Float64bits(r) != math.Float64bits(f) {
						t.Fatalf("%s: resumed rough cost %v, fresh %v", label, r, f)
					}
				}
			}
		}
	}
	if deferring == 0 || greedy == 0 {
		t.Fatalf("%d deferred predicates, %d reordered queries: the estimates that decide them went unchecked", deferring, greedy)
	}

	small := worlds[2]
	q, other := small.queries[0], small.queries[0]
	for _, o := range small.queries {
		if len(o.Tables) != len(q.Tables) {
			other = o
		}
	}
	est := NewSession(small.view, q).Estimates()
	for name, resume := range map[string]func(){
		"another view":             func() { ResumeSession(worlds[1].view, q, &est) },
		"another number of tables": func() { ResumeSession(small.view, other, &est) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("resuming under %s did not panic", name)
				}
			}()
			resume()
		}()
	}
}

// identity is the syntactic join order of n tables.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRoughCostGolden pins the native rough cost and the executor's work to
// their values bit for bit: an FNV-1a digest of Float64bits of
// Session.RoughCost and of exec's Work total for every plan of the sweep —
// every query of the differential worlds under the default and each single
// flag, at card scales 0 (off), 0.2, 0.5 and 5. The rough cost is the
// executor's work formula over the view's estimated rows, so a change to how
// either is written must leave both digests where they are.
func TestRoughCostGolden(t *testing.T) {
	var flags []Flags
	for _, f := range steeringFlags() {
		if len(f.Knobs()) <= 1 {
			flags = append(flags, f)
		}
	}
	rough, work := fnv.New64a(), fnv.New64a()
	fold := func(h hash.Hash64, v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	plannings, lazy := 0, 0
	for _, w := range diffWorlds() {
		ex := exec.NewExecutor(simrand.New(1), nil, w.project)
		for _, q := range w.queries {
			s := NewSession(w.view, q)
			for _, scale := range []float64{0, 0.2, 0.5, 5} {
				for _, f := range flags {
					p, _ := s.Plan(f, scale)
					fold(rough, s.RoughCost(p))
					total, _, _, _ := ex.Work(p, diffDay)
					fold(work, total)
					plannings++
					if countOps(p, plan.OpLazySpool) > 0 {
						lazy++
					}
				}
			}
		}
	}
	if plannings != 3360 {
		t.Fatalf("%d plannings, want 3 worlds × 40 queries × 7 flag sets × 4 scales", plannings)
	}
	t.Logf("%d plannings, %d with a lazy spool", plannings, lazy)
	if lazy == 0 {
		t.Fatal("no planning holds a lazy spool, so the digests do not cover its costing")
	}
	if got, want := rough.Sum64(), uint64(0x6a5de23cc60acfa5); got != want {
		t.Errorf("rough-cost digest %#x, want %#x", got, want)
	}
	if got, want := work.Sum64(), uint64(0x1e65753d081bb31e); got != want {
		t.Errorf("work digest %#x, want %#x", got, want)
	}
}

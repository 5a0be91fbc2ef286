package nativeopt

import (
	"math"
	"testing"

	"loam/internal/cardinality"
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
	view    *stats.View
	queries []*query.Query
}

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
		const day = 4
		w := workload.DefaultConfig()
		w.NumTemplates = 40
		w.MinTables, w.MaxTables = minT, maxT
		w.PushDifficultProb = pushDifficult
		g := workload.NewGenerator(simrand.New(seed+1), p, w)
		out := diffWorld{name: name, view: stats.Snapshot(simrand.New(seed+2), p, day, pol)}
		for _, tpl := range g.Templates {
			out.queries = append(out.queries, tpl.Instantiate(simrand.New(seed+3), day))
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
// checks, at Float64bits, that the rows the builder registered node by node —
// from memoized selectivities, in a Result reused across plannings — are the
// rows a fresh whole-tree Estimate computes for the finished plan, for every
// node, under both the unscaled estimator (which ranks) and the scaled one
// (which sizes); that the rough cost that fell out of the planning is the
// one a fresh RoughCost computes; and that a plan built from the nodes of
// released plans is the plan a fresh optimizer builds.
func TestIncrementalRowsMatchWholeTreeEstimate(t *testing.T) {
	flags := steeringFlags()
	if len(flags) != 22 {
		t.Fatalf("%d steering flag sets, want 1+6+15", len(flags))
	}
	for _, w := range diffWorlds() {
		sizes := map[int]int{}
		for _, q := range w.queries {
			sizes[len(q.Tables)]++
			s := NewSession(w.view, q)
			released := false
			for _, scale := range diffScales {
				for _, f := range flags {
					p, rough, _ := s.Plan(f, scale)

					plain := &cardinality.Estimator{Src: cardinality.ViewSource(w.view)}
					sameRows(t, w.name, q, "unscaled", p.Root, s.cards, plain.Estimate(p.Root))
					if scales(scale) {
						scaled := &cardinality.Estimator{Src: plain.Src, CardScale: scale}
						sameRows(t, w.name, q, "scaled", p.Root, s.scaled, scaled.Estimate(p.Root))
					}
					fresh := (&Optimizer{View: w.view, CardScale: scale}).Optimize(q, f)
					if p.Root.Fingerprint() != fresh.Root.Fingerprint() || p.String() != fresh.String() {
						t.Fatalf("%s %s %v scale %g: session plan differs from a fresh optimizer's:\n%s\nvs\n%s",
							w.name, q.ID, f, scale, p, fresh)
					}
					if want := New(w.view).RoughCost(p); math.Float64bits(rough) != math.Float64bits(want) {
						t.Fatalf("%s %s %v scale %g: planning's rough cost %v, fresh RoughCost %v",
							w.name, q.ID, f, scale, rough, want)
					}
					// Every other plan goes back for parts, so half the
					// plannings build from recycled nodes.
					if released = !released; released {
						s.Release(p)
					}
				}
			}
		}
		t.Logf("%s: %d queries, tables per query %v", w.name, len(w.queries), sizes)
	}
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
				base, baseCost, decisive := s.Plan(f, 0)
				for _, x := range singleFlags {
					if f.Union(x) == f {
						continue
					}
					p, cost, got := s.Plan(f.Union(x), 0)
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
					s.Release(p)
				}
				if !s.Scales() {
					unscalable++
					for _, scale := range diffScales {
						p, cost, got := s.Plan(f, scale)
						if !p.Root.Equal(base.Root) || math.Float64bits(cost) != math.Float64bits(baseCost) || got != decisive {
							t.Fatalf("%s %s %v: %d tables, yet scale %g plans\n%s\nnot\n%s",
								w.name, q.ID, f.Knobs(), len(q.Tables), scale, p, base)
						}
						s.Release(p)
					}
				}
				s.Release(base)
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
// would — twenty rounds over ten settings, two of three plans released as soon
// as they are built — and then holds every plan it kept to the contract: it is
// still the plan a fresh optimizer builds for its setting (a released plan
// took no shared node with it, and no later planning wrote one), no node sits
// at two positions of one plan, and what two plans do share is scan subplans
// only.
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
			type kept struct {
				setting
				p *plan.Plan
			}
			var keep []kept
			s := NewSession(w.view, q)
			for round := 0; round < 20; round++ {
				for i, st := range settings {
					p, _, _ := s.Plan(st.f, st.scale)
					if (round+i)%3 == 0 {
						keep = append(keep, kept{st, p})
					} else {
						s.Release(p)
					}
				}
			}
			owner := map[*plan.Node]*plan.Plan{}
			for _, k := range keep {
				fresh := (&Optimizer{View: w.view, CardScale: k.scale}).Optimize(q, k.f)
				if !k.p.Root.Equal(fresh.Root) || k.p.String() != fresh.String() {
					t.Fatalf("%s %s %v scale %g: the kept plan is no longer its setting's plan:\n%s\nvs\n%s",
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
		t.Fatal("no two kept plans shared a node: the sharing contract went unchecked")
	}
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

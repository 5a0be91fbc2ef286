package explorer

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"loam/internal/expr"
	"loam/internal/nativeopt"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/internal/stats"
)

// Tests of the steering memo (steerMemo): its key covers every query input
// the native optimizer plans from, and a replayed answer is the one exploring
// afresh gives — plans, fingerprints, knobs, order and sealed rough costs.

// cloneQuery deep-copies q: slices, inputs and predicates.
func cloneQuery(q *query.Query) *query.Query {
	c := *q
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

// firstCompare returns the first comparison node with a constant operand in
// n's preorder, or nil.
func firstCompare(n *expr.Node) *expr.Node {
	if n == nil {
		return nil
	}
	if n.Fn.IsComparison() && len(n.Args) > 0 {
		return n
	}
	for _, c := range n.Children {
		if m := firstCompare(c); m != nil {
			return m
		}
	}
	return nil
}

// keyWorld finds a query that exercises every part of the key: three or more
// tables, two joins, grouping, aggregates, a sargable predicate with a
// constant below a connective, and a non-sargable one. It returns the view,
// the query and the tables holding the two predicates.
func keyWorld(t *testing.T) (*stats.View, *query.Query, string, string) {
	t.Helper()
	for _, w := range oracleWorlds() {
		for _, q := range w.queries {
			if len(q.Tables) < 3 || len(q.Joins) < 2 || len(q.GroupBy) == 0 || len(q.Aggs) == 0 {
				continue
			}
			pred, hard := "", ""
			for _, name := range q.Tables {
				in, ok := q.Inputs[name]
				if !ok {
					continue
				}
				if pred == "" && in.Pred != nil && len(in.Pred.Children) > 0 && firstCompare(in.Pred) != nil {
					pred = name
				}
				if hard == "" && in.HardPred != nil {
					hard = name
				}
			}
			if pred != "" && hard != "" {
				return w.view, q, pred, hard
			}
		}
	}
	t.Fatal("no query of the oracle worlds exercises every key field")
	return nil, nil, "", ""
}

// allSettings is every setting New or NewWide can plan.
func allSettings() []setting {
	flags := append([]nativeopt.Flags{{}}, singleFlags[:]...)
	flags = append(flags, pairFlags...)
	var out []setting
	for _, f := range flags {
		for _, scale := range append([]float64{0}, append(slices.Clone(defaultCardScales), wideCardScales...)...) {
			out = append(out, setting{flags: f, scale: scale})
		}
	}
	return out
}

// TestSteerKeyCoversPlanningInputs holds the memo's key to what the native
// optimizer reads. Each row mutates one field of a query; a row either changes
// the planning key, or — the short not-read list — leaves it and is checked
// against nativeopt: every setting plans the mutated query to the same plan,
// knobs, rough cost and decisive set. Every field of query.Query, TableInput,
// JoinEdge, AggSpec, expr.Node and expr.ColumnRef must have a row, so a field
// added to any of them fails here until the key, or the not-read list, takes
// it.
func TestSteerKeyCoversPlanningInputs(t *testing.T) {
	view, orig, predTable, hardTable := keyWorld(t)
	other := expr.ColumnRef{Table: orig.Tables[0], Column: "zz"}
	pred := func(q *query.Query) *query.TableInput { return q.Inputs[predTable] }
	hard := func(q *query.Query) *query.TableInput { return q.Inputs[hardTable] }
	cmp := func(q *query.Query) *expr.Node { return firstCompare(pred(q).Pred) }
	rows := []struct {
		field   string // Type.Field mutated
		differs bool
		mutate  func(q *query.Query)
	}{
		// Not planning inputs: names, the day and the execution noise.
		{"Query.ID", false, func(q *query.Query) { q.ID += "x" }},
		{"Query.TemplateID", false, func(q *query.Query) { q.TemplateID += "x" }},
		{"Query.Project", false, func(q *query.Query) { q.Project += "x" }},
		{"Query.Day", false, func(q *query.Query) { q.Day++ }},
		{"Query.NoiseSigma", false, func(q *query.Query) { q.NoiseSigma *= 2 }},
		{"", false, func(q *query.Query) {}}, // a deep copy: the key is of values, not pointers
		{"Query.Tables", true, func(q *query.Query) { slices.Reverse(q.Tables) }},
		{"Query.Inputs", true, func(q *query.Query) { delete(q.Inputs, predTable) }},
		// An input for a table the query does not scan is never read.
		{"Query.Inputs", false, func(q *query.Query) {
			q.Inputs["absent"] = &query.TableInput{PartitionFrac: 0.5, ColumnsAccessed: 3, Pred: expr.Compare(expr.FuncEQ, other, 1)}
		}},
		{"Query.Joins", true, func(q *query.Query) { q.Joins = q.Joins[:len(q.Joins)-1] }},
		{"Query.GroupBy", true, func(q *query.Query) { q.GroupBy = append(q.GroupBy, other) }},
		{"Query.Aggs", true, func(q *query.Query) { q.Aggs = q.Aggs[:len(q.Aggs)-1] }},
		{"TableInput.PartitionFrac", true, func(q *query.Query) {
			pred(q).PartitionFrac = math.Nextafter(pred(q).PartitionFrac, 0)
		}},
		{"TableInput.ColumnsAccessed", true, func(q *query.Query) { pred(q).ColumnsAccessed++ }},
		{"TableInput.Pred", true, func(q *query.Query) { pred(q).Pred = nil }},
		{"TableInput.HardPred", true, func(q *query.Query) { hard(q).HardPred = nil }},
		{"JoinEdge.LeftTable", true, func(q *query.Query) { q.Joins[0].LeftTable = q.Joins[0].RightTable }},
		{"JoinEdge.RightTable", true, func(q *query.Query) { q.Joins[1].RightTable = q.Joins[1].LeftTable }},
		{"JoinEdge.LeftCol", true, func(q *query.Query) { q.Joins[0].LeftCol = other }},
		{"JoinEdge.RightCol", true, func(q *query.Query) { q.Joins[1].RightCol = other }},
		{"JoinEdge.Form", true, func(q *query.Query) { q.Joins[0].Form = q.Joins[0].Form%plan.JoinSemi + 1 }},
		{"AggSpec.Fn", true, func(q *query.Query) { q.Aggs[0].Fn = q.Aggs[0].Fn%plan.AggMax + 1 }},
		{"AggSpec.Col", true, func(q *query.Query) { q.Aggs[0].Col = other }},
		{"ColumnRef.Table", true, func(q *query.Query) { q.GroupBy[0].Table = "t" + q.GroupBy[0].Table }},
		{"ColumnRef.Column", true, func(q *query.Query) { q.GroupBy[0].Column += "z" }},
		{"Node.Fn", true, func(q *query.Query) { cmp(q).Fn = cmp(q).Fn%expr.FuncGE + 1 }},
		{"Node.Col", true, func(q *query.Query) { cmp(q).Col.Column += "z" }},
		{"Node.Args", true, func(q *query.Query) { cmp(q).Args[0] = math.Nextafter(cmp(q).Args[0], math.Inf(1)) }},
		{"Node.Args", true, func(q *query.Query) { cmp(q).Args = append(cmp(q).Args, 1) }},
		{"Node.Children", true, func(q *query.Query) { pred(q).Pred.Children = pred(q).Pred.Children[1:] }},
		{"Node.Children", true, func(q *query.Query) { hard(q).HardPred = expr.Not(hard(q).HardPred) }},
	}
	covered := map[string]bool{}
	base := string(orig.AppendPlanningKey(nil))
	for i, row := range rows {
		covered[row.field] = true
		q := cloneQuery(orig)
		row.mutate(q)
		if differs := string(q.AppendPlanningKey(nil)) != base; differs != row.differs {
			t.Errorf("row %d (%s): key differs %v, want %v", i, row.field, differs, row.differs)
			continue
		}
		if row.differs {
			continue
		}
		for _, st := range allSettings() {
			s, ms := nativeopt.NewSession(view, orig), nativeopt.NewSession(view, q)
			p, decisive := s.Plan(st.flags, st.scale)
			mp, mdecisive := ms.Plan(st.flags, st.scale)
			cost, mcost := s.RoughCost(p), ms.RoughCost(mp)
			if !mp.Root.Equal(p.Root) || !slices.Equal(mp.Knobs, p.Knobs) ||
				math.Float64bits(mcost) != math.Float64bits(cost) || mdecisive != decisive {
				t.Errorf("row %d (%s): the key ignores it, but nativeopt plans %+v differently", i, row.field, st)
				break
			}
		}
	}
	for prefix, typ := range map[string]reflect.Type{
		"Query.": reflect.TypeOf(query.Query{}), "TableInput.": reflect.TypeOf(query.TableInput{}),
		"JoinEdge.": reflect.TypeOf(query.JoinEdge{}), "AggSpec.": reflect.TypeOf(query.AggSpec{}),
		"Node.": reflect.TypeOf(expr.Node{}), "ColumnRef.": reflect.TypeOf(expr.ColumnRef{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if name := prefix + typ.Field(i).Name; !covered[name] {
				t.Errorf("no row mutates %s: does the native optimizer read it, and does the planning key?", name)
			}
		}
	}
}

// sameCandidates reports how got differs from want, or nil when it is want:
// the same plans (Equal), each sealed with the fingerprint a fresh walk
// computes, the same knobs in the same order, and the same sealed rough
// costs, bit for bit.
func sameCandidates(view *stats.View, got, want []*plan.Plan) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, fresh %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Root.Equal(w.Root) {
			return fmt.Errorf("candidate %d differs:\n%s\nvs fresh\n%s", i, g, w)
		}
		fp, ok := g.SealedFingerprint()
		if !ok || fp != g.Root.Fingerprint() || fp != w.Root.Fingerprint() {
			return fmt.Errorf("candidate %d sealed %#x (%v), walk %#x, fresh %#x", i, fp, ok, g.Root.Fingerprint(), w.Root.Fingerprint())
		}
		if strings.Join(g.Knobs, ",") != strings.Join(w.Knobs, ",") {
			return fmt.Errorf("candidate %d knobs %v, fresh %v", i, g.Knobs, w.Knobs)
		}
		gr, gok := g.SealedRough(view)
		wr, _ := w.SealedRough(view)
		if !gok || math.Float64bits(gr) != math.Float64bits(wr) {
			return fmt.Errorf("candidate %d sealed rough %v (%v), fresh %v", i, gr, gok, wr)
		}
	}
	return nil
}

// fresh is what e explores for q with no memo.
func fresh(e *Explorer, q *query.Query) []*plan.Plan {
	c := *e
	c.memo = nil
	return c.Candidates(q)
}

// TestSteerMemoReplaysFreshCandidates: over every world and the default,
// wide and two copies of a default explorer, the first call of a query
// records nothing but its hash, the second records its steering, and the
// second and third calls return what a fresh explorer returns. A copy shares
// its original's memo pointer but must neither read nor write that memo: the
// uncut copy's original has recorded every query under TopK 5 by the time the
// copy runs, and the other copy's original, with the copy's very settings,
// must still be empty after it.
func TestSteerMemoReplaysFreshCandidates(t *testing.T) {
	for _, w := range oracleWorlds() {
		def, wide, pristine := New(w.view), NewWide(w.view), New(w.view)
		uncut, same := *def, *pristine
		uncut.TopK = 0
		explorers := []struct {
			name string
			e    *Explorer
			orig *Explorer // a copy's original, whose memo it must not touch
		}{{"default", def, nil}, {"wide", wide, nil}, {"uncut copy", &uncut, def}, {"copy", &same, pristine}}
		keys := map[string]bool{}
		for _, q := range w.queries {
			keys[string(q.AppendPlanningKey(nil))] = true
		}
		for _, x := range explorers {
			var seen, records int
			if x.orig != nil {
				seen, records = len(x.orig.memo.seen), len(x.orig.memo.records)
			}
			called := map[string]bool{}
			for _, q := range w.queries {
				label := fmt.Sprintf("%s %s %s", w.name, x.name, q.ID)
				want := fresh(x.e, q)
				for call := 1; call <= 3; call++ {
					got := x.e.Candidates(q)
					if err := sameCandidates(w.view, got, want); err != nil {
						t.Fatalf("%s call %d: %v", label, call, err)
					}
					if call == 3 {
						// The seals a replay took from its record are the
						// costs an estimate-and-walk of each plan computes.
						for i, c := range got {
							sealed, _ := c.SealedRough(w.view)
							if walked := nativeopt.New(w.view).RoughCost(c.Clone()); math.Float64bits(sealed) != math.Float64bits(walked) {
								t.Fatalf("%s call 3: candidate %d sealed rough %v, estimated and walked %v", label, i, sealed, walked)
							}
						}
					}
					if key := string(q.AppendPlanningKey(nil)); x.orig == nil && call == 1 && !called[key] {
						if _, ok := x.e.memo.records[key]; ok {
							t.Fatalf("%s: recorded on first sight", label)
						}
						called[key] = true
					}
				}
			}
			switch {
			case x.orig == nil && len(x.e.memo.records) != len(keys):
				t.Fatalf("%s %s: %d records for %d distinct queries", w.name, x.name, len(x.e.memo.records), len(keys))
			case x.orig != nil && (len(x.orig.memo.seen) != seen || len(x.orig.memo.records) != records):
				t.Fatalf("%s %s: the copy's calls moved its original's memo from %d seen, %d records to %d, %d",
					w.name, x.name, seen, records, len(x.orig.memo.seen), len(x.orig.memo.records))
			}
		}
	}
}

// TestSteerMemoSecondSight: a query's first call leaves only its key's hash
// in seen, its second builds the record, and a one-off query never costs a
// record.
func TestSteerMemoSecondSight(t *testing.T) {
	w := oracleWorlds()[0]
	e := New(w.view)
	q := w.queries[0]
	e.Candidates(q)
	if len(e.memo.seen) != 1 || len(e.memo.records) != 0 {
		t.Fatalf("after one call: %d seen, %d records; want 1, 0", len(e.memo.seen), len(e.memo.records))
	}
	e.Candidates(q)
	rec, ok := e.memo.records[string(q.AppendPlanningKey(nil))]
	if !ok || len(rec.steps) != len(fresh(e, q)) {
		t.Fatalf("after two calls: record %v of %d steps", ok, len(rec.steps))
	}
	for _, other := range w.queries[1:] {
		e.Candidates(other)
	}
	if len(e.memo.records) != 1 {
		t.Fatalf("one-off queries built %d records", len(e.memo.records)-1)
	}
}

// TestSteerMemoConcurrentRepeats: goroutines repeating the same queries on
// one explorer — racing to record a query and replaying it while another
// records — each get the fresh answer (run under -race).
func TestSteerMemoConcurrentRepeats(t *testing.T) {
	w := oracleWorlds()[1]
	e := New(w.view)
	want := make([][]*plan.Plan, len(w.queries))
	for i, q := range w.queries {
		want[i] = fresh(e, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i, q := range w.queries {
					if err := sameCandidates(w.view, e.Candidates(q), want[i]); err != nil {
						t.Errorf("goroutine %d round %d %s: %v", g, round, q.ID, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(e.memo.records) == 0 {
		t.Fatal("no query was recorded")
	}
}

// TestSteerRecordResumesFreshSession: over every world and the default, the
// wide and an uncut (TopK 0) explorer, each with a memo of its own, the
// estimates a record holds resume — under a repeat of the query that shares
// no pointer with it (other ID and day) — a session that plans every setting
// either explorer can plan to the plan a NewSession of the query plans: Equal,
// the same knobs and decisive set, the same rough cost bits. (Every node's
// rows are checked against a fresh session's in nativeopt's
// TestResumedSessionPlansAsFresh.) Each recorded step's rough cost is the one
// its setting plans to.
func TestSteerRecordResumesFreshSession(t *testing.T) {
	for _, w := range oracleWorlds() {
		uncut := *New(w.view)
		uncut.TopK, uncut.memo = 0, nil
		for name, e := range map[string]*Explorer{"default": New(w.view), "wide": NewWide(w.view), "uncut": withMemo(&uncut)} {
			for _, q := range w.queries {
				e.Candidates(q)
				e.Candidates(q)
				rec, ok := e.memo.records[string(q.AppendPlanningKey(nil))]
				if !ok {
					t.Fatalf("%s %s %s: no record after two calls", w.name, name, q.ID)
				}
				repeat := cloneQuery(q)
				repeat.ID += "-again"
				repeat.Day++
				resumed, fresh := nativeopt.ResumeSession(w.view, repeat, &rec.est), nativeopt.NewSession(w.view, q)
				for _, st := range allSettings() {
					rp, rdecisive := resumed.Plan(st.flags, st.scale)
					fp, fdecisive := fresh.Plan(st.flags, st.scale)
					rcost, fcost := resumed.RoughCost(rp), fresh.RoughCost(fp)
					if !rp.Root.Equal(fp.Root) || !slices.Equal(rp.Knobs, fp.Knobs) || rdecisive != fdecisive ||
						math.Float64bits(rcost) != math.Float64bits(fcost) {
						t.Fatalf("%s %s %s %+v: the resumed session plans\n%s\n(rough %v), a fresh one\n%s\n(rough %v)",
							w.name, name, q.ID, st, rp, rcost, fp, fcost)
					}
				}
				for i, step := range rec.steps {
					p, _ := fresh.Plan(step.flags, step.scale)
					if cost := fresh.RoughCost(p); math.Float64bits(step.rough) != math.Float64bits(cost) {
						t.Fatalf("%s %s %s: step %d recorded rough %v, its setting plans to %v", w.name, name, q.ID, i, step.rough, cost)
					}
				}
			}
		}
	}
}

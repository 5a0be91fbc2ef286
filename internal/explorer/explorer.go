// Package explorer implements LOAM's plan explorer (§3): steering the native
// optimizer with knobs to produce a diverse set of candidate plans. It
// combines Bao-style flag toggling with Lero-style cardinality scaling for
// sub-plans with at least three inputs, drops duplicate plans, and keeps the
// top-k candidates by the native optimizer's rough cost — always including
// the default plan, mirroring the paper's evaluation setup (§7.1).
package explorer

import (
	"math"
	"slices"

	"loam/internal/floatsafe"
	"loam/internal/nativeopt"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/internal/stats"
)

// Explorer generates candidate plans for queries against one statistics
// view.
type Explorer struct {
	View *stats.View
	// CardScales are the Lero-style scaling factors tried (beyond 1).
	CardScales []float64
	// TopK bounds the candidate set (the paper retains the top 5 by rough
	// cost estimate). 0 means keep all.
	TopK int
	// SafetyFactor drops candidates whose rough cost exceeds this multiple
	// of the default plan's rough cost — the paper's flags were chosen to be
	// "safe enough to avoid drastically bad plans". 0 disables the cut.
	SafetyFactor float64
	// Wide additionally explores pairwise flag combinations (§7.3's
	// diversified-exploration direction).
	Wide bool
}

// defaultCardScales and wideCardScales are shared by every explorer New and
// NewWide build; Candidates only reads them.
var (
	defaultCardScales = []float64{0.2, 0.5, 5.0}
	wideCardScales    = []float64{0.1, 0.2, 0.5, 2, 5, 10}
)

// New builds an explorer with the paper's defaults.
func New(v *stats.View) *Explorer {
	return &Explorer{View: v, CardScales: defaultCardScales, TopK: 5, SafetyFactor: 3}
}

// NewWide builds a diversified explorer — the paper's §7.3 future-work
// direction ("the estimated value could be substantially improved by
// incorporating more diversified plan exploration strategies"): pairwise
// flag combinations, a denser cardinality-scaling grid, and a larger
// candidate budget.
func NewWide(v *stats.View) *Explorer {
	e := New(v)
	e.Wide = true
	e.CardScales = wideCardScales
	e.TopK = 8
	return e
}

// singleFlags are the six single-flag toggles; pairFlags every two-flag
// combination (wide exploration).
var (
	singleFlags = [...]nativeopt.Flags{
		{MergeJoin: true},
		{BroadcastJoin: true},
		{ShuffleCombine: true},
		{SpoolEager: true},
		{FilterPushdown: true},
		{DopHigh: true},
	}
	pairFlags = pairFlagSets()
)

func pairFlagSets() []nativeopt.Flags {
	var out []nativeopt.Flags
	for i := 0; i < len(singleFlags); i++ {
		for j := i + 1; j < len(singleFlags); j++ {
			out = append(out, singleFlags[i].Union(singleFlags[j]))
		}
	}
	return out
}

// Candidates returns the candidate plan set for a query: the default plan
// first, then up to TopK-1 distinct knob-tuned alternatives ranked by the
// native rough cost. Every setting is planned through one nativeopt.Session,
// so the request evaluates each table-local predicate, each scan subplan and
// each plan node once — the returned plans share their scan subtrees, and are
// read-only like any sealed plan (Clone to edit). Each is kept out of the
// session's scratch into storage of its own, so holding one pins no other
// plan of the request.
func (e *Explorer) Candidates(q *query.Query) []*plan.Plan {
	session := nativeopt.NewSession(e.View, q)
	type scored struct {
		p    *plan.Plan
		cost float64
	}
	// kept[0] is the default plan; the alternatives follow in planning order,
	// the order the (unstable) sort below needs for cost ties to rank as ever.
	kept := make([]scored, 0, e.settings())
	e.plannings(session, func(p *plan.Plan, cost float64) {
		// Equal plans have equal cost bits — the same tree over the same
		// cardinalities, summed in the same order — so the structural compare
		// runs only on a tie. A plan that is not kept stays in the session's
		// scratch, which the next planning builds over.
		for _, k := range kept {
			if math.Float64bits(k.cost) == math.Float64bits(cost) && k.p.Root.Equal(p.Root) {
				return
			}
		}
		// Drastically bad (or NaN) by the native estimate. The cut plan is not
		// remembered: a later twin costs the same and is cut here too.
		if len(kept) > 0 && e.SafetyFactor > 0 && !floatsafe.LessEq(cost, e.SafetyFactor*kept[0].cost) {
			return
		}
		kept = append(kept, scored{p: session.Keep(p), cost: cost})
	})

	// slices.SortFunc runs the pdqsort sort.Slice runs (both are generated
	// from one template) and asks only whether cmp < 0, which holds exactly
	// when SortLess does: the same comparisons, so the same order of ties.
	alts := kept[1:]
	slices.SortFunc(alts, func(a, b scored) int {
		switch {
		case floatsafe.SortLess(a.cost, b.cost):
			return -1
		case floatsafe.SortLess(b.cost, a.cost):
			return 1
		}
		return 0
	})
	if e.TopK > 0 && e.TopK-1 < len(alts) {
		alts = alts[:e.TopK-1]
	}
	// Only what is returned is sealed: with its fingerprint, which the
	// predictor's plan-embedding cache keys on (plan.Seal), and with the rough
	// cost planning produced (plan.SealRough), which the guard's sentinel asks
	// nativeopt for again on every learned serve.
	out := make([]*plan.Plan, 0, 1+len(alts))
	for _, k := range kept[:1+len(alts)] {
		k.p.Seal()
		k.p.SealRough(e.View, k.cost)
		out = append(out, k.p)
	}
	return out
}

// settings is how many steering settings the explorer chooses from.
func (e *Explorer) settings() int {
	n := 1 + len(singleFlags) + len(e.CardScales)
	if e.Wide {
		n += len(pairFlags)
	}
	return n
}

// plannings plans the query under every setting that can build a plan no
// earlier setting built — the default, the single flags, with Wide the pairs,
// then the card scales — and hands each plan and its rough cost to visit, in
// that order. Each plan is in the session's scratch until the next planning:
// visit keeps what it holds on to (nativeopt.Session.Keep). A setting is
// skipped only on a proof (nativeopt.Session.Plan: adding a flag that did not
// decide rebuilds the plan), so what is skipped is always the later twin of a
// plan visit has seen: no candidate, knob label or order changes.
func (e *Explorer) plannings(s *nativeopt.Session, visit func(*plan.Plan, float64)) {
	p, cost, base := s.Plan(nativeopt.Flags{}, 0)
	visit(p, cost)

	// decisive[i] is the decisive set of singleFlags[i]'s planning; a single
	// flag inert in the default planning builds the default plan by the
	// default's choices, decisive set included.
	var decisive [len(singleFlags)]nativeopt.Flags
	for i, f := range singleFlags {
		decisive[i] = base
		if decides(base, f) {
			p, cost, decisive[i] = s.Plan(f, 0)
			visit(p, cost)
		}
	}
	if e.Wide {
		// {a, b} builds {a}'s plan when b is inert there, {b}'s when a is.
		k := 0
		for i, a := range singleFlags {
			for j := i + 1; j < len(singleFlags); j++ {
				if decides(decisive[i], singleFlags[j]) && decides(decisive[j], a) {
					p, cost, _ := s.Plan(pairFlags[k], 0)
					visit(p, cost)
				}
				k++
			}
		}
	}
	if s.Scales() {
		for _, scale := range e.CardScales {
			p, cost, _ := s.Plan(nativeopt.Flags{}, scale)
			visit(p, cost)
		}
	}
}

// decides reports whether every flag of f is in the decisive set.
func decides(decisive, f nativeopt.Flags) bool { return decisive.Union(f) == decisive }

// DefaultPlan returns just the native optimizer's plan (no knobs).
func (e *Explorer) DefaultPlan(q *query.Query) *plan.Plan {
	return nativeopt.DefaultPlan(e.View, q)
}

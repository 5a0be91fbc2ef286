// Package explorer implements LOAM's plan explorer (§3): steering the native
// optimizer with knobs to produce a diverse set of candidate plans. It
// combines Bao-style flag toggling with Lero-style cardinality scaling for
// sub-plans with at least three inputs, deduplicates by plan fingerprint,
// and keeps the top-k candidates by the native optimizer's rough cost —
// always including the default plan, mirroring the paper's evaluation setup
// (§7.1).
package explorer

import (
	"sort"

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
			out = append(out, merge(singleFlags[i], singleFlags[j]))
		}
	}
	return out
}

func merge(a, b nativeopt.Flags) nativeopt.Flags {
	return nativeopt.Flags{
		MergeJoin:      a.MergeJoin || b.MergeJoin,
		BroadcastJoin:  a.BroadcastJoin || b.BroadcastJoin,
		ShuffleCombine: a.ShuffleCombine || b.ShuffleCombine,
		SpoolEager:     a.SpoolEager || b.SpoolEager,
		FilterPushdown: a.FilterPushdown || b.FilterPushdown,
		DopHigh:        a.DopHigh || b.DopHigh,
	}
}

// Candidates returns the candidate plan set for a query: the default plan
// first, then up to TopK-1 distinct knob-tuned alternatives ranked by the
// native rough cost. Every setting is planned through one nativeopt.Session,
// so the request evaluates each table-local predicate and each plan node
// once.
func (e *Explorer) Candidates(q *query.Query) []*plan.Plan {
	session := nativeopt.NewSession(e.View, q)
	def, defCost := session.Plan(nativeopt.Flags{}, 0)

	type scored struct {
		p    *plan.Plan
		cost float64
	}
	// Candidates are sealed with the fingerprint the dedup pass computes
	// anyway: the predictor's plan-embedding cache keys on it every time a
	// candidate is scored, and re-walking the tree per lookup dominated the
	// warm serving path before the seal (see plan.Seal). The rough cost
	// planning produced rides along (plan.SealRough): the guard's sentinel
	// asks nativeopt for it again on every learned serve.
	settings := 1 + len(singleFlags) + len(e.CardScales)
	if e.Wide {
		settings += len(pairFlags)
	}
	seen := make([]uint64, 1, settings)
	seen[0] = def.Seal()
	def.SealRough(e.View, defCost)
	alts := make([]scored, 0, settings-1)

	// A plan that is not kept goes back to the session, whose later
	// plannings reuse its nodes.
	add := func(p *plan.Plan, cost float64) {
		fp := p.Seal()
		for _, s := range seen {
			if s == fp {
				session.Release(p)
				return
			}
		}
		seen = append(seen, fp)
		if e.SafetyFactor > 0 && !floatsafe.LessEq(cost, e.SafetyFactor*defCost) {
			session.Release(p) // drastically bad (or NaN) by the native estimate
			return
		}
		p.SealRough(e.View, cost)
		alts = append(alts, scored{p: p, cost: cost})
	}

	for _, f := range singleFlags {
		add(session.Plan(f, 0))
	}
	if e.Wide {
		for _, f := range pairFlags {
			add(session.Plan(f, 0))
		}
	}
	for _, scale := range e.CardScales {
		add(session.Plan(nativeopt.Flags{}, scale))
	}

	sort.Slice(alts, func(i, j int) bool { return floatsafe.SortLess(alts[i].cost, alts[j].cost) })
	limit := len(alts)
	if e.TopK > 0 && e.TopK-1 < limit {
		limit = e.TopK - 1
	}
	out := make([]*plan.Plan, 1, 1+limit)
	out[0] = def
	for _, s := range alts[:limit] {
		out = append(out, s.p)
	}
	return out
}

// DefaultPlan returns just the native optimizer's plan (no knobs).
func (e *Explorer) DefaultPlan(q *query.Query) *plan.Plan {
	return nativeopt.DefaultPlan(e.View, q)
}

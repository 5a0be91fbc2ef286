// Package explorer implements LOAM's plan explorer (§3): steering the native
// optimizer with knobs to produce a diverse set of candidate plans. It
// combines Bao-style flag toggling with Lero-style cardinality scaling for
// sub-plans with at least three inputs, drops duplicate plans, and keeps the
// top-k candidates by the native optimizer's rough cost — always including
// the default plan, mirroring the paper's evaluation setup (§7.1).
package explorer

import (
	"hash/maphash"
	"math"
	"slices"
	"sync"

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

	// memo replays the steering of queries this explorer has answered before
	// (steerMemo); nil unless New or NewWide built the explorer.
	memo *steerMemo
}

// defaultCardScales and wideCardScales are shared by every explorer New and
// NewWide build; Candidates only reads them.
var (
	defaultCardScales = []float64{0.2, 0.5, 5.0}
	wideCardScales    = []float64{0.1, 0.2, 0.5, 2, 5, 10}
)

// New builds an explorer with the paper's defaults.
func New(v *stats.View) *Explorer {
	return withMemo(&Explorer{View: v, CardScales: defaultCardScales, TopK: 5, SafetyFactor: 3})
}

// NewWide builds a diversified explorer — the paper's §7.3 future-work
// direction ("the estimated value could be substantially improved by
// incorporating more diversified plan exploration strategies"): pairwise
// flag combinations, a denser cardinality-scaling grid, and a larger
// candidate budget.
func NewWide(v *stats.View) *Explorer {
	return withMemo(&Explorer{View: v, CardScales: wideCardScales, TopK: 8, SafetyFactor: 3, Wide: true})
}

// withMemo gives e a steering memo that answers for e as it is now.
func withMemo(e *Explorer) *Explorer {
	m := &steerMemo{
		owner: e, config: *e,
		seed:    maphash.MakeSeed(),
		seen:    map[uint64]struct{}{},
		records: map[string]steerRecord{},
	}
	m.config.CardScales = slices.Clone(e.CardScales)
	e.memo = m
	return e
}

// steerMemo is an explorer's record of how it steered the queries it has
// seen twice (steerRecord). A repeat query replays its record — resumes a
// planning session from the recorded estimates, plans only the recorded
// settings, skips the rough costs, the dedup and the sort, and seals each plan
// with its recorded fingerprint and rough cost — and gets what exploring again
// would return, bit for bit (DESIGN.md "Plan exploration contract").
//
// A record is keyed by the query's exact planning key
// (query.Query.AppendPlanningKey): the whole string is compared, so no hash
// is trusted with an answer. On first sight only a 64-bit hash of the key
// goes into seen; the record is built the second time, so a workload of
// one-off queries pays a word per query, not a record. A hash collision can
// only build a record early.
//
// The memo answers only for its owner, and only while the owner's settings
// are the ones it was built under: a copy of the explorer (`e := *ex`), or
// one whose fields were changed in place, explores afresh.
type steerMemo struct {
	owner  *Explorer
	config Explorer // the owner's settings at construction (memo nil, scales copied)
	seed   maphash.Seed

	// mu guards both maps. A record is immutable once stored; two callers
	// that race to build one store equal records.
	mu      sync.RWMutex
	seen    map[uint64]struct{}
	records map[string]steerRecord
}

// steerRecord is how the explorer steered one query: the estimates its
// planning session evaluated, and the candidates it returned, in output order.
type steerRecord struct {
	est   nativeopt.Estimates
	steps []steerStep
}

// steerStep is one candidate of a recorded steering: the setting that
// planned it, the fingerprint Seal returned for the plan and the rough cost
// its planning returned.
type steerStep struct {
	setting
	fp    uint64
	rough float64
}

// setting is one steering setting: the flags and card scale a planning ran
// under (scale 0: none).
type setting struct {
	flags nativeopt.Flags
	scale float64
}

// serves reports whether the memo may answer for e.
func (m *steerMemo) serves(e *Explorer) bool {
	c := &m.config
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return m.owner == e && e.View == c.View && e.TopK == c.TopK && e.Wide == c.Wide &&
		sameBits(e.SafetyFactor, c.SafetyFactor) && slices.EqualFunc(e.CardScales, c.CardScales, sameBits)
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
// read-only like any sealed plan (Clone to edit). Each is built in storage of
// its own, so holding one pins no other plan of the request. A query the
// explorer has answered before is answered by replaying its recorded steering
// (steerMemo), with the same result.
func (e *Explorer) Candidates(q *query.Query) []*plan.Plan {
	m := e.memo
	if m == nil || !m.serves(e) {
		out, _ := e.explore(q, false)
		return out
	}
	var buf [2048]byte // planning keys of 1–6 tables measure 0.03–1.4 KB
	key := q.AppendPlanningKey(buf[:0])
	h := maphash.Bytes(m.seed, key)
	m.mu.RLock()
	rec, recorded := m.records[string(key)]
	_, again := m.seen[h]
	m.mu.RUnlock()
	if recorded {
		return e.replay(q, &rec)
	}
	out, rec := e.explore(q, again)
	m.mu.Lock()
	if again {
		m.records[string(key)] = rec
	} else {
		m.seen[h] = struct{}{}
	}
	m.mu.Unlock()
	return out
}

// replay plans the recorded settings of a query, in the recorded order, in a
// session resumed from the recorded estimates, and seals each plan with the
// fingerprint and the rough cost exploring sealed.
func (e *Explorer) replay(q *query.Query, rec *steerRecord) []*plan.Plan {
	session := nativeopt.ResumeSession(e.View, q, &rec.est)
	out := make([]*plan.Plan, len(rec.steps))
	for i, st := range rec.steps {
		p, _ := session.Plan(st.flags, st.scale)
		p.SealRecorded(st.fp)
		p.SealRough(e.View, st.rough)
		out[i] = p
	}
	return out
}

// explore plans the query under every setting and returns the candidates;
// with record, also their steering, for the memo.
func (e *Explorer) explore(q *query.Query, record bool) ([]*plan.Plan, steerRecord) {
	session := nativeopt.NewSession(e.View, q)
	type scored struct {
		p    *plan.Plan
		cost float64
		by   setting
	}
	// kept[0] is the default plan; the alternatives follow in planning order,
	// the order the (unstable) sort below needs for cost ties to rank as ever.
	kept := make([]scored, 0, e.settings())
	e.plannings(session, func(p *plan.Plan, cost float64, by setting) {
		// Equal plans have equal cost bits — the same tree over the same
		// cardinalities, summed in the same order — so the structural compare
		// runs only on a tie. A plan that is not kept is garbage.
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
		kept = append(kept, scored{p: p, cost: cost, by: by})
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
	// predictor's plan cache keys on (plan.Seal), and with the rough cost
	// planning produced (plan.SealRough), which the guard's sentinel asks
	// nativeopt for again on every learned serve.
	out := make([]*plan.Plan, 0, 1+len(alts))
	var rec steerRecord
	if record {
		rec = steerRecord{est: session.Estimates(), steps: make([]steerStep, 0, cap(out))}
	}
	for _, k := range kept[:1+len(alts)] {
		fp := k.p.Seal()
		k.p.SealRough(e.View, k.cost)
		out = append(out, k.p)
		if record {
			rec.steps = append(rec.steps, steerStep{setting: k.by, fp: fp, rough: k.cost})
		}
	}
	return out, rec
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
// then the card scales — and hands each plan, its rough cost and its setting
// to visit, in that order. Each plan owns its nodes above the shared scan
// subplans, so visit may hold any of them. A setting is skipped only on a
// proof (nativeopt.Session.Plan: adding a flag that did not decide rebuilds
// the plan), so what is skipped is always the later twin of a plan visit has
// seen: no candidate, knob label or order changes.
func (e *Explorer) plannings(s *nativeopt.Session, visit func(*plan.Plan, float64, setting)) {
	p, base := s.Plan(nativeopt.Flags{}, 0)
	visit(p, s.RoughCost(p), setting{})

	// decisive[i] is the decisive set of singleFlags[i]'s planning; a single
	// flag inert in the default planning builds the default plan by the
	// default's choices, decisive set included.
	var decisive [len(singleFlags)]nativeopt.Flags
	for i, f := range singleFlags {
		decisive[i] = base
		if decides(base, f) {
			p, decisive[i] = s.Plan(f, 0)
			visit(p, s.RoughCost(p), setting{flags: f})
		}
	}
	if e.Wide {
		// {a, b} builds {a}'s plan when b is inert there, {b}'s when a is.
		k := 0
		for i, a := range singleFlags {
			for j := i + 1; j < len(singleFlags); j++ {
				if decides(decisive[i], singleFlags[j]) && decides(decisive[j], a) {
					p, _ := s.Plan(pairFlags[k], 0)
					visit(p, s.RoughCost(p), setting{flags: pairFlags[k]})
				}
				k++
			}
		}
	}
	if s.Scales() {
		for _, scale := range e.CardScales {
			p, _ := s.Plan(nativeopt.Flags{}, scale)
			visit(p, s.RoughCost(p), setting{scale: scale})
		}
	}
}

// decides reports whether every flag of f is in the decisive set.
func decides(decisive, f nativeopt.Flags) bool { return decisive.Union(f) == decisive }

// DefaultPlan returns just the native optimizer's plan (no knobs).
func (e *Explorer) DefaultPlan(q *query.Query) *plan.Plan {
	return nativeopt.DefaultPlan(e.View, q)
}

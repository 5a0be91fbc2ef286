// Package nativeopt implements the MaxCompute-stand-in native cost-based
// optimizer (§2.1, phase 1): join ordering, physical operator selection,
// partition pruning and exchange placement, all driven by the possibly stale
// or missing statistics view — plus the tunable optimization flags and the
// cardinality-scaling knob that LOAM's plan explorer steers (§3).
//
// The optimizer's failure modes are faithful to the paper: when column
// statistics are missing for any involved table, join reordering is disabled
// and the syntactic order is used; selectivities fall back to magic
// constants; row counts come from stale snapshots. Those errors are what
// give candidate plans real headroom over default plans.
package nativeopt

import (
	"math"

	"loam/internal/cardinality"
	"loam/internal/expr"
	"loam/internal/floatsafe"
	"loam/internal/plan"
	"loam/internal/query"
	"loam/internal/stats"
)

// Flags are the six exploration flags (join, shuffling, spool, filter,
// parallelism and execution-mode related) LOAM toggles, following Bao.
type Flags struct {
	// MergeJoin prefers sort-merge joins over hash joins.
	MergeJoin bool
	// BroadcastJoin raises the broadcast-join row threshold 10×.
	BroadcastJoin bool
	// ShuffleCombine inserts partial aggregation below the shuffle
	// (combine-before-exchange), trading local work for shuffle volume.
	ShuffleCombine bool
	// SpoolEager materializes intermediate results eagerly (Spool) instead
	// of lazily (LazySpool); eager spools are immune to memory-pressure
	// spill penalties.
	SpoolEager bool
	// FilterPushdown pushes predicates the default rules consider
	// non-sargable below joins.
	FilterPushdown bool
	// DopHigh doubles the degree of parallelism of exchanges.
	DopHigh bool
}

// Knobs renders the flags as the knob labels recorded on plans.
func (f Flags) Knobs() []string {
	var out []string
	if f.MergeJoin {
		out = append(out, "flag:mergeJoin")
	}
	if f.BroadcastJoin {
		out = append(out, "flag:broadcastJoin")
	}
	if f.ShuffleCombine {
		out = append(out, "flag:shuffleCombine")
	}
	if f.SpoolEager {
		out = append(out, "flag:spoolEager")
	}
	if f.FilterPushdown {
		out = append(out, "flag:filterPushdown")
	}
	if f.DopHigh {
		out = append(out, "flag:dopHigh")
	}
	return out
}

// Union returns the flags set in f or in g.
func (f Flags) Union(g Flags) Flags {
	return Flags{
		MergeJoin:      f.MergeJoin || g.MergeJoin,
		BroadcastJoin:  f.BroadcastJoin || g.BroadcastJoin,
		ShuffleCombine: f.ShuffleCombine || g.ShuffleCombine,
		SpoolEager:     f.SpoolEager || g.SpoolEager,
		FilterPushdown: f.FilterPushdown || g.FilterPushdown,
		DopHigh:        f.DopHigh || g.DopHigh,
	}
}

// IsZero reports whether no flag is set.
func (f Flags) IsZero() bool { return f == Flags{} }

// Physical-selection thresholds (estimated rows).
const (
	broadcastThresholdDefault = 5e4
	broadcastThresholdFlagged = 5e5
	nestedLoopThreshold       = 1e3
	// mergeJoinThreshold is the estimated build-side size above which the
	// native optimizer prefers a sort-merge join (hash table too large).
	mergeJoinThreshold = 1.5e7
	// spoolThreshold is the estimated intermediate size above which the
	// native optimizer materializes eagerly.
	spoolThreshold = 3e7
	// combineRatio: partial aggregation is applied by default when estimated
	// groups are at least this many times smaller than the input.
	combineRatio = 2500
	highDOP      = 128
)

// Optimizer plans queries against one statistics view.
type Optimizer struct {
	View *stats.View
	// CardScale is the Lero-style knob: scale estimated cardinalities of
	// sub-plans spanning ≥3 tables. 0 or 1 = off.
	CardScale float64
}

// New builds an optimizer over a statistics view.
func New(v *stats.View) *Optimizer { return &Optimizer{View: v} }

// DefaultPlan compiles the query with all exploration flags off and the
// default cardinality scaling — the plan MaxCompute would run with no
// learned steering. The guarded serving layer uses it as the
// native-fallback rung when the learned path is unavailable.
func DefaultPlan(v *stats.View, q *query.Query) *plan.Plan {
	return New(v).Optimize(q, Flags{})
}

func (o *Optimizer) estimator() *cardinality.Estimator {
	return &cardinality.Estimator{Src: cardinality.ViewSource(o.View), CardScale: o.CardScale}
}

// Optimize compiles a logical query into a physical plan under the given
// flags. The result is deterministic in (query, view, flags, CardScale). It
// is the one-setting case of a planning Session.
func (o *Optimizer) Optimize(q *query.Query, f Flags) *plan.Plan {
	p, _, _ := NewSession(o.View, q).Plan(f, o.CardScale)
	return p
}

// RoughCost is the native expert cost model: per-operator work over
// *estimated* cardinalities, with no environment term. It ranks candidate
// plans for the explorer's top-k cut and mirrors how the native optimizer
// selects its default plan.
//
// A plan the explorer sealed with its rough cost (plan.SealRough) answers
// from the seal when the seal's validity rule holds — same view, scaling
// off — so the guard's sentinel, which asks about plans the explorer has
// just costed, pays a lookup; every other plan is estimated and walked.
func (o *Optimizer) RoughCost(p *plan.Plan) float64 {
	if !scales(o.CardScale) {
		if c, ok := p.SealedRough(o.View); ok {
			return c
		}
	}
	return roughCost(p.Root, o.estimator().Estimate(p.Root))
}

// scales reports whether a CardScale value actually scales (0 and 1 are off).
func scales(cardScale float64) bool { return cardScale > 0 && cardScale != 1 }

// roughCost sums the expert model's per-operator work over root in preorder,
// reading cardinalities from cards.
func roughCost(root *plan.Node, cards *cardinality.Result) float64 {
	coeffs := defaultRoughCoeffs
	total := 0.0
	root.Walk(func(n *plan.Node) {
		inst := 32
		if n.Parallelism > 0 {
			inst = n.Parallelism
		}
		total += coeffs.NodeWork(n, cards, inst)
	})
	return total
}

// defaultRoughCoeffs mirror the execution simulator's coefficients: the
// expert model has the right functional form, it just feeds on wrong
// cardinalities — which is exactly the paper's diagnosis.
var defaultRoughCoeffs = roughCoeffs{}

type roughCoeffs struct{}

// NodeWork delegates to the exec package's coefficients indirectly: to keep
// nativeopt free of an exec dependency the formula is restated with the same
// structure and the default constants.
func (roughCoeffs) NodeWork(n *plan.Node, cards *cardinality.Result, instances int) float64 {
	out := cards.Rows(n)
	in := func(i int) float64 {
		if i < len(n.Children) {
			return cards.Rows(n.Children[i])
		}
		return 1
	}
	switch n.Op {
	case plan.OpTableScan:
		return 0.005 * out * (0.4 + 0.08*float64(n.ColumnsAccessed))
	case plan.OpFilter, plan.OpCalc:
		return 0.002*in(0)*(1+0.15*float64(n.Pred.Size())) + 0.001*out
	case plan.OpHashJoin, plan.OpSemiJoin, plan.OpAntiJoin:
		return 0.012*in(1) + 0.005*in(0) + 0.001*out
	case plan.OpMergeJoin:
		l, r := in(0), in(1)
		return 0.006*(l+r) + 0.0012*(l*log2(l)+r*log2(r))*0.25 + 0.001*out
	case plan.OpNestedLoopJoin:
		return 0.00008*in(0)*in(1) + 0.001*out
	case plan.OpBroadcastJoin:
		return 0.004*in(1)*float64(instances) + 0.005*in(0) + 0.001*out
	case plan.OpHashAggregate, plan.OpPartialAggregate, plan.OpFinalAggregate, plan.OpDistinct:
		return 0.006*in(0)*(1+0.1*float64(len(n.AggFuncs))) + 0.004*out
	case plan.OpSortAggregate:
		return 0.0012*in(0)*log2(in(0)) + 0.003*in(0)*(1+0.1*float64(len(n.AggFuncs))) + 0.004*out
	case plan.OpSort, plan.OpLocalSort, plan.OpTopN:
		return 0.0012 * in(0) * log2(in(0))
	case plan.OpWindow:
		return 0.0015 * in(0) * log2(in(0))
	case plan.OpExchange:
		return 0.008 * in(0)
	case plan.OpBroadcastExchange:
		return 0.004 * in(0) * float64(instances)
	case plan.OpSpool:
		return 0.004 * in(0)
	case plan.OpLazySpool:
		return 0.0016 * in(0)
	default:
		return 0.001 * out
	}
}

func log2(v float64) float64 {
	if v < 2 {
		return 1
	}
	return math.Log2(v)
}

// Session is one request's planning state for one (view, query): everything
// a plan depends on that no steering setting changes — the selectivity of each
// table-local predicate, each table's statistics facts, the join graph
// resolved to table slots, the join order before the card-scale rotation, each
// table's scan subplan — computed once and shared by every setting the
// request plans (the explorer plans up to ten). It also holds the
// cardinalities of every node it built: the builder registers each node as it
// creates it, so every node is estimated once and sizing decisions read
// sub-plan rows back.
//
// A Session belongs to one goroutine and one request. It keeps nothing past
// its own lifetime and only reads the view.
type Session struct {
	view *stats.View
	q    *query.Query
	est  cardinality.Estimator // never scales: the rough cost ranks unscaled

	tables []tableFacts // parallel to q.Tables, which are distinct
	joins  []joinEnds   // parallel to q.Joins
	base   []int        // join order as table slots, before scaleRotate
	// q.Aggs split the way aggregate nodes carry them; like q.GroupBy, every
	// plan of the session shares them.
	aggFuncs []plan.AggFunc
	aggCols  []expr.ColumnRef

	// scans holds each table's scan subplan — the scan, its Calc or Filter
	// and its HardPred where that is evaluated at the scan — by table slot
	// under the default rules, then by slot again under FilterPushdown; built
	// on first use and shared by every plan of the session that scans the
	// table that way. A shared node is never written again and never
	// released, and any one plan holds it once.
	scans []*plan.Node
	// pushdown reports whether FilterPushdown changes any table's subplan.
	pushdown bool

	// cards and scaled are never reset between plannings: the shared scans'
	// entries must outlive the planning that made them, and a recycled node
	// overwrites its own entry before any parent reads it.
	cards  *cardinality.Result // every node built, under est
	scaled *cardinality.Result // the nodes of scaling plannings, under their estimator; nil until one is planned

	joined []bool // scratch, by table slot

	// free holds the nodes of released plans, reused by later plannings.
	free []*plan.Node
}

// tableFacts are the setting-independent facts of one query table.
type tableFacts struct {
	name      string
	in        *query.TableInput
	selPred   float64 // selectivity of in.Pred under the view (1 for nil)
	selHard   float64 // selectivity of in.HardPred under the view (1 for nil)
	hasStats  bool
	partsRead int
	// What FilterPushdown changes for the table. fuses: in.Pred is complex
	// enough that the default rules keep it a Filter where pushdown fuses it
	// into a Calc. defers: the default rules decline to push in.HardPred below
	// joins when no column statistics can justify the rewrite (§2.1: missing
	// statistics disable transformations) and place it above the table's first
	// join — so a query of one table, having no join, never defers.
	fuses, defers bool
}

// joinEnds are a join edge's tables as slots (-1: not a table of the query).
type joinEnds struct{ left, right int }

// nodesPerTable sizes a session's cardinality results: a plan has about this
// many operators per table (scan, two filters, join, two exchanges, and a
// share of the spool, aggregate and select).
const nodesPerTable = 8

// NewSession evaluates the setting-independent inputs of planning q against v.
func NewSession(v *stats.View, q *query.Query) *Session {
	n := len(q.Tables)
	s := &Session{
		view:     v,
		q:        q,
		est:      cardinality.Estimator{Src: cardinality.ViewSource(v)},
		tables:   make([]tableFacts, n),
		joins:    make([]joinEnds, len(q.Joins)),
		scans:    make([]*plan.Node, 2*n),
		cards:    cardinality.NewResult(nodesPerTable * n),
		aggFuncs: aggFuncs(q.Aggs),
		aggCols:  aggCols(q.Aggs),
		joined:   make([]bool, n),
	}
	for i, name := range q.Tables {
		in := q.Input(name)
		parts := v.PartitionEstimate(name)
		read := parts
		if in.PartitionFrac < 1 {
			read = int(math.Ceil(in.PartitionFrac * float64(parts)))
			if read < 1 {
				read = 1
			}
		}
		hasStats := v.HasColumnStats(name)
		s.tables[i] = tableFacts{
			name:      name,
			in:        in,
			selPred:   expr.Selectivity(in.Pred, v),
			selHard:   expr.Selectivity(in.HardPred, v),
			hasStats:  hasStats,
			partsRead: read,
			fuses:     in.Pred.Size() > 2,
			defers:    in.HardPred != nil && !hasStats && n > 1,
		}
		s.pushdown = s.pushdown || s.tables[i].fuses || s.tables[i].defers
	}
	for i, j := range q.Joins {
		s.joins[i] = joinEnds{left: s.slot(j.LeftTable), right: s.slot(j.RightTable)}
	}
	s.base = s.baseOrder()
	return s
}

func (s *Session) slot(table string) int {
	for i := range s.tables {
		if s.tables[i].name == table {
			return i
		}
	}
	return -1
}

// Plan compiles the query under one steering setting and returns the plan,
// its native rough cost (see Optimizer.RoughCost) and the planning's decisive
// set. The cost is always the unscaled one — cardScale steers which plan is
// built, not how candidates are ranked against each other. The plan shares its
// scan subplans with the session's other plans: read it, Clone it to edit.
//
// The decisive set holds every flag whose value settled at least one choice
// of this planning — one its other value would have made differently, given
// everything planned up to it. By induction over the build's choices,
// Plan(f ∪ {x}, cardScale) builds this very plan whenever x is not in the
// set: the two builds meet every choice in the same state and x changes none
// (DESIGN.md "Plan exploration contract"). The set describes this planning
// alone, hence a return value and not session state.
func (s *Session) Plan(f Flags, cardScale float64) (*plan.Plan, float64, Flags) {
	b := builder{s: s, flags: f, sizes: s.cards}
	knobs := f.Knobs()
	if scales(cardScale) {
		if s.scaled == nil {
			s.scaled = cardinality.NewResult(nodesPerTable * len(s.tables))
		}
		b.scaling = cardinality.Estimator{Src: s.est.Src, CardScale: cardScale}
		b.sizes = s.scaled
		knobs = append(knobs, "cardScale")
	}
	root := b.build(s.scaleRotate(s.base, cardScale))
	return &plan.Plan{Root: root, Knobs: knobs}, roughCost(root, s.cards), b.decisive
}

// Scales reports whether a card scale can change the query's plan: scaleRotate
// keeps the order of fewer than three tables and the estimator scales only
// sub-plans spanning at least three, so below that every scale plans the
// unscaled plan.
func (s *Session) Scales() bool { return len(s.tables) >= 3 }

// Release hands a plan this session built back to it, to be dismantled: its
// nodes — but for the scan subplans, which stay the session's — become the
// material of later plannings, so a plan that turns out to duplicate an
// earlier one costs the request no garbage. The caller gives the plan up — it
// must hold no other reference to it or to any node above its scans.
func (s *Session) Release(p *plan.Plan) {
	s.release(p.Root)
	p.Root = nil
}

func (s *Session) release(n *plan.Node) {
	if n.Op.IsFilterLike() || n.Op == plan.OpTableScan {
		for _, root := range s.scans {
			if n == root {
				return
			}
		}
	}
	s.free = append(s.free, n)
	for _, c := range n.Children {
		s.release(c)
	}
}

// node returns a node to build with: a released one if there is any.
func (s *Session) node() *plan.Node {
	if last := len(s.free) - 1; last >= 0 {
		n := s.free[last]
		s.free = s.free[:last]
		return n
	}
	return new(plan.Node)
}

// builder constructs one physical plan of a session. Predicates are shared
// with the query, not copied: expression trees are immutable values, and
// plan.Clone — the way to get a plan to edit — copies them.
type builder struct {
	s     *Session
	flags Flags
	// sizes is where sizing decisions read estimated rows: the session's
	// cards, or — when the setting scales cardinalities — its scaled twin,
	// which scaling fills in step.
	sizes   *cardinality.Result
	scaling cardinality.Estimator
	// decisive collects the flags that settled a choice (see Session.Plan).
	// Each is recorded where the flag is read, under the condition that its
	// two values part ways there.
	decisive Flags
}

// add makes v a node over the given children — registered already — and
// registers it under the session's estimator; sel is the selectivity of
// v.Pred (read only for filter-like nodes), which the session already holds.
func (s *Session) add(v plan.Node, sel float64, children ...*plan.Node) *plan.Node {
	n := s.node()
	v.Children = append(n.Children[:0], children...)
	*n = v
	s.est.AddFiltered(s.cards, n, sel)
	return n
}

// add makes v a node of the plan under construction.
func (b *builder) add(v plan.Node, children ...*plan.Node) *plan.Node {
	return b.addFiltered(v, 1, children...)
}

// addFiltered is add for a filter-like node.
func (b *builder) addFiltered(v plan.Node, sel float64, children ...*plan.Node) *plan.Node {
	n := b.s.add(v, sel, children...)
	if b.sizes != b.s.cards {
		b.scaling.AddFiltered(b.sizes, n, sel)
	}
	return n
}

func (b *builder) build(order []int) *plan.Node {
	s := b.s
	b.decisive.FilterPushdown = s.pushdown

	// 1. Left-deep join tree over the session's scan subplans, in the given
	// order, with physical selection.
	joined := s.joined
	clear(joined)
	joined[order[0]] = true
	current := b.scan(order[0])
	joinCount := 0
	for _, t := range order[1:] {
		edge, found := s.findEdge(joined, t)
		current = b.buildJoin(current, b.scan(t), edge, found)
		joined[t] = true
		joinCount++
		// A non-pushable predicate referencing only t's columns legally sits
		// directly above the join that introduces t — the lowest placement
		// the conservative rule allows (the pushdown flag moves it to the
		// scan instead).
		current = b.applyDeferred(current, t)
		if joinCount == 1 {
			current = b.applyDeferred(current, order[0])
		}
		// Intermediate materialization point after the first join of a
		// multi-join query: eager when the estimate says the intermediate is
		// large (or the spool flag forces it), lazy otherwise.
		if joinCount == 1 && len(order) > 2 {
			large := b.sizes.Rows(current) > spoolThreshold
			b.decisive.SpoolEager = !large
			op := plan.OpLazySpool
			if large || b.flags.SpoolEager {
				op = plan.OpSpool
			}
			current = b.add(plan.Node{Op: op}, current)
		}
	}

	// 2. Aggregation.
	if len(s.q.Aggs) > 0 || len(s.q.GroupBy) > 0 {
		current = b.buildAgg(current)
	}

	return b.add(plan.Node{Op: plan.OpSelect}, current)
}

// scan returns the table's scan subplan under this planning's pushdown
// setting. The scaled twin takes the subplan's rows as the session holds
// them: a sub-plan of one table is never scaled.
func (b *builder) scan(slot int) *plan.Node {
	root := b.s.scan(slot, b.flags.FilterPushdown)
	if b.sizes != b.s.cards {
		b.sizes.Adopt(b.s.cards, root)
	}
	return root
}

// scan returns the session's scan subplan of a table, building it the first
// time a planning asks. Pushdown has a subplan of its own only for a table it
// changes.
func (s *Session) scan(slot int, pushdown bool) *plan.Node {
	t := &s.tables[slot]
	pushdown = pushdown && (t.fuses || t.defers)
	if pushdown {
		slot += len(s.tables)
	}
	if s.scans[slot] == nil {
		s.scans[slot] = s.buildScan(t, pushdown)
	}
	return s.scans[slot]
}

func (s *Session) buildScan(t *tableFacts, pushdown bool) *plan.Node {
	in := t.in
	node := s.add(plan.Node{
		Op:              plan.OpTableScan,
		Table:           t.name,
		PartitionsRead:  t.partsRead,
		ColumnsAccessed: max(1, in.ColumnsAccessed),
	}, 1)
	if in.Pred != nil {
		// Sargable predicates always land at the scan: simple ones fuse into
		// a Calc, complex ones stay a Filter (pushdown fuses everything).
		op := plan.OpFilter
		if pushdown || !t.fuses {
			op = plan.OpCalc
		}
		node = s.add(plan.Node{Op: op, Pred: in.Pred}, t.selPred, node)
	}
	// With statistics, or the flag forcing it, the non-sargable predicate is
	// evaluated at the scan (above it a Filter, not fused); deferred, it is
	// applyDeferred's.
	if in.HardPred != nil && (pushdown || !t.defers) {
		node = s.add(plan.Node{Op: plan.OpFilter, Pred: in.HardPred}, t.selHard, node)
	}
	return node
}

// applyDeferred places a table's deferred predicate above n. Every table is
// passed here once, after the join that introduces it.
func (b *builder) applyDeferred(n *plan.Node, slot int) *plan.Node {
	t := &b.s.tables[slot]
	if !t.defers || b.flags.FilterPushdown {
		return n
	}
	return b.addFiltered(plan.Node{Op: plan.OpFilter, Pred: t.in.HardPred}, t.selHard, n)
}

// baseOrder returns the order tables are joined in, as slots, before the
// card-scale rotation — no flag changes it, so a session computes it once.
// With column statistics for every table the optimizer greedily minimizes
// estimated intermediate sizes; otherwise reordering is disabled (§2.1) and
// the syntactic order is kept.
func (s *Session) baseOrder() []int {
	n := len(s.tables)
	if n <= 2 || !s.allStats() {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	// Greedy: start from the smallest estimated filtered input; repeatedly
	// add the connected table minimizing the estimated joined size.
	filtered := make([]float64, n)
	for i := range filtered {
		filtered[i] = s.filteredRows(i)
	}
	first := 0
	for t := 1; t < n; t++ {
		if floatsafe.Less(filtered[t], filtered[first]) {
			first = t
		}
	}
	order := make([]int, 1, n)
	order[0] = first
	joined := s.joined
	clear(joined)
	joined[first] = true
	size := filtered[first]
	for len(order) < n {
		// Ties break on the table name, a total order.
		best := -1
		bestSize := math.Inf(1)
		for t := 0; t < n; t++ {
			if joined[t] {
				continue
			}
			edge, connected := s.findEdge(joined, t)
			var joinedSize float64
			if connected {
				ndv := math.Max(s.est.Src.NDV(edge.LeftCol), s.est.Src.NDV(edge.RightCol))
				if ndv < 1 {
					ndv = 1
				}
				joinedSize = size * filtered[t] / ndv
			} else {
				joinedSize = size * filtered[t] // cross join: heavily penalized by size
			}
			if joinedSize < bestSize || (joinedSize == bestSize && best >= 0 && s.tables[t].name < s.tables[best].name) {
				bestSize = joinedSize
				best = t
			}
		}
		order = append(order, best)
		joined[best] = true
		size = math.Max(1, bestSize)
	}
	return order
}

// scaleRotate applies the Lero-style knob's structural effect: with
// CardScale != 1, sub-plans spanning ≥3 tables are re-costed, which shifts
// the order the optimizer settles on — also when reordering is disabled.
// Modeled as a deterministic rotation so the knob reliably yields a
// structurally different join order.
func (s *Session) scaleRotate(order []int, cardScale float64) []int {
	if !scales(cardScale) || len(order) < 3 {
		return order
	}
	// Pick a different starting table per scale regime, then rebuild a
	// connectivity-preserving order by walking the join graph — the knob
	// must never introduce cross joins the query doesn't have.
	start := 1
	switch {
	case cardScale < 0.3:
		start = len(order) - 1
	case cardScale < 1:
		start = 1 % len(order)
	default:
		start = 2 % len(order)
	}
	return s.connectedOrder(order, order[start])
}

// connectedOrder returns a join order starting at start in which every
// subsequent table is connected to the already-joined set when the join
// graph allows it (remaining disconnected tables are appended in the
// original order).
func (s *Session) connectedOrder(tables []int, start int) []int {
	joined := s.joined
	clear(joined)
	joined[start] = true
	out := make([]int, 1, len(tables))
	out[0] = start
	for len(out) < len(tables) {
		next := -1
		for _, t := range tables {
			if joined[t] {
				continue
			}
			if _, connected := s.findEdge(joined, t); connected {
				next = t
				break
			}
		}
		if next < 0 {
			// Disconnected component: fall back to original order.
			for _, t := range tables {
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

func (s *Session) allStats() bool {
	for i := range s.tables {
		if !s.tables[i].hasStats {
			return false
		}
	}
	return true
}

// filteredRows estimates a table's rows after partition pruning and its full
// table-local predicate. The conjunction of Pred and HardPred is the product
// of the two selectivities: each is already clamped to [0,1], so clamping the
// product again (as evaluating the conjoined tree would) changes nothing.
func (s *Session) filteredRows(slot int) float64 {
	t := &s.tables[slot]
	rows := float64(s.view.RowEstimate(t.name))
	if t.in.PartitionFrac < 1 {
		rows *= t.in.PartitionFrac
	}
	rows *= t.selPred * t.selHard
	if rows < 1 {
		rows = 1
	}
	return rows
}

// findEdge locates a join edge between the joined set and table slot t. The
// boolean is false when t is only reachable by cross join.
func (s *Session) findEdge(joined []bool, t int) (query.JoinEdge, bool) {
	for i, ends := range s.joins {
		if ends.left == t && ends.right >= 0 && joined[ends.right] {
			// Flip so the new table is on the right.
			j := s.q.Joins[i]
			return query.JoinEdge{
				LeftTable: j.RightTable, RightTable: j.LeftTable,
				LeftCol: j.RightCol, RightCol: j.LeftCol,
				Form: flipForm(j.Form),
			}, true
		}
		if ends.right == t && ends.left >= 0 && joined[ends.left] {
			return s.q.Joins[i], true
		}
	}
	return query.JoinEdge{}, false
}

func flipForm(f plan.JoinForm) plan.JoinForm {
	switch f {
	case plan.JoinLeft:
		return plan.JoinRight
	case plan.JoinRight:
		return plan.JoinLeft
	default:
		return f
	}
}

// buildJoin attaches right to left with physical operator selection based on
// estimated sizes.
func (b *builder) buildJoin(left, right *plan.Node, edge query.JoinEdge, connected bool) *plan.Node {
	lRows := b.sizes.Rows(left)
	rRows := b.sizes.Rows(right)

	if !connected {
		// Cross join: nested loop, no exchange keys to hash on.
		return b.add(plan.Node{Op: plan.OpNestedLoopJoin, JoinForm: plan.JoinInner}, left, right)
	}

	node := plan.Node{
		JoinForm:  edge.Form,
		LeftCols:  []expr.ColumnRef{edge.LeftCol},
		RightCols: []expr.ColumnRef{edge.RightCol},
	}
	if node.JoinForm == 0 {
		node.JoinForm = plan.JoinInner
	}

	// Keep the smaller estimated side as the build (right) side.
	if lRows < rRows && swappable(node.JoinForm) {
		left, right = right, left
		lRows, rRows = rRows, lRows
		node.LeftCols, node.RightCols = node.RightCols, node.LeftCols
		node.JoinForm = flipForm(node.JoinForm)
	}

	threshold := float64(broadcastThresholdDefault)
	if b.flags.BroadcastJoin {
		threshold = broadcastThresholdFlagged
	}

	dop := 0
	if b.flags.DopHigh {
		dop = highDOP
	}

	nested := lRows < nestedLoopThreshold && rRows < nestedLoopThreshold
	if !nested {
		// Between the two thresholds the flag makes the join a broadcast;
		// either way it exchanges, at the flagged parallelism.
		b.decisive.BroadcastJoin = b.decisive.BroadcastJoin ||
			rRows >= broadcastThresholdDefault && rRows < broadcastThresholdFlagged
		b.decisive.DopHigh = true
	}
	switch {
	case nested:
		node.Op = plan.OpNestedLoopJoin
	case rRows < threshold:
		node.Op = plan.OpBroadcastJoin
		right = b.add(plan.Node{Op: plan.OpBroadcastExchange, Parallelism: dop}, right)
	default:
		// Sort-merge by default when the build side is too large to hash;
		// the merge-join flag forces it regardless — unless the edge is a
		// semi or anti join, whose operator replaces either below.
		large := rRows > mergeJoinThreshold
		b.decisive.MergeJoin = b.decisive.MergeJoin ||
			!large && edge.Form != plan.JoinSemi && edge.Form != plan.JoinAnti
		if large || b.flags.MergeJoin {
			node.Op = plan.OpMergeJoin
		} else {
			node.Op = plan.OpHashJoin
		}
		left = b.add(plan.Node{Op: plan.OpExchange, Parallelism: dop}, left)
		right = b.add(plan.Node{Op: plan.OpExchange, Parallelism: dop}, right)
	}
	switch edge.Form {
	case plan.JoinSemi:
		node.Op = plan.OpSemiJoin
	case plan.JoinAnti:
		node.Op = plan.OpAntiJoin
	}
	return b.add(node, left, right)
}

func swappable(f plan.JoinForm) bool {
	return f == plan.JoinInner || f == plan.JoinFull
}

func (b *builder) buildAgg(input *plan.Node) *plan.Node {
	q := b.s.q
	dop := 0
	if b.flags.DopHigh {
		dop = highDOP
	}
	b.decisive.DopHigh = true // both shapes below exchange
	// Combine-before-shuffle by default when the estimate says groups are
	// far fewer than input rows; the flag forces it.
	combine := false
	if len(q.GroupBy) > 0 {
		inRows := b.sizes.Rows(input)
		groups := 1.0
		for _, c := range q.GroupBy {
			groups *= b.s.est.Src.NDV(c)
		}
		combine = groups*combineRatio < inRows
		b.decisive.ShuffleCombine = !combine
		combine = combine || b.flags.ShuffleCombine
	}
	if combine {
		partial := b.add(plan.Node{
			Op:        plan.OpPartialAggregate,
			AggFuncs:  b.s.aggFuncs,
			AggCols:   b.s.aggCols,
			GroupCols: q.GroupBy,
		}, input)
		ex := b.add(plan.Node{Op: plan.OpExchange, Parallelism: dop}, partial)
		return b.add(plan.Node{
			Op:        plan.OpFinalAggregate,
			AggFuncs:  b.s.aggFuncs,
			AggCols:   b.s.aggCols,
			GroupCols: q.GroupBy,
		}, ex)
	}
	// Sorted inputs favor sort-based aggregation; the merge-join flag forces it.
	sorted := sortedOutput(input)
	b.decisive.MergeJoin = b.decisive.MergeJoin || !sorted
	aggOp := plan.OpHashAggregate
	if sorted || b.flags.MergeJoin {
		aggOp = plan.OpSortAggregate
	}
	ex := b.add(plan.Node{Op: plan.OpExchange, Parallelism: dop}, input)
	return b.add(plan.Node{
		Op:        aggOp,
		AggFuncs:  b.s.aggFuncs,
		AggCols:   b.s.aggCols,
		GroupCols: q.GroupBy,
	}, ex)
}

func aggFuncs(specs []query.AggSpec) []plan.AggFunc {
	out := make([]plan.AggFunc, len(specs))
	for i, s := range specs {
		out[i] = s.Fn
	}
	return out
}

func aggCols(specs []query.AggSpec) []expr.ColumnRef {
	out := make([]expr.ColumnRef, len(specs))
	for i, s := range specs {
		out[i] = s.Col
	}
	return out
}

// sortedOutput reports whether a subtree's output is already sorted (its
// pipeline root is a merge join or sort), making sort-based aggregation
// attractive.
func sortedOutput(n *plan.Node) bool {
	for n != nil {
		switch n.Op {
		case plan.OpMergeJoin, plan.OpSort, plan.OpLocalSort, plan.OpSortAggregate:
			return true
		case plan.OpFilter, plan.OpCalc, plan.OpProject, plan.OpSpool, plan.OpLazySpool:
			if len(n.Children) == 0 {
				return false
			}
			n = n.Children[0]
		default:
			return false
		}
	}
	return false
}

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
	"slices"

	"loam/internal/cardinality"
	"loam/internal/exec"
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

// Knobs renders the flags as the knob labels recorded on plans. The slice is
// shared by every caller that asks for the same flags: read it, never write
// it (it is capacity-limited, so an append copies).
func (f Flags) Knobs() []string { return knobLabels[f.bits()] }

// knobs is the label set a planning records: the flags', then "cardScale"
// when it scales.
func (f Flags) knobs(scaled bool) []string {
	if scaled {
		return knobLabels[f.bits()+len(knobLabels)/2]
	}
	return knobLabels[f.bits()]
}

// bits numbers the flag set, one bit per flag in field order.
func (f Flags) bits() int {
	b := 0
	for i, set := range [...]bool{f.MergeJoin, f.BroadcastJoin, f.ShuffleCombine, f.SpoolEager, f.FilterPushdown, f.DopHigh} {
		if set {
			b |= 1 << i
		}
	}
	return b
}

// knobLabels holds the labels of every setting, built once: index
// Flags.bits(), plus 64 for the same flags scaling cardinalities. Each slice
// is capacity-limited, and the unscaled default's is nil.
var knobLabels = func() (out [128][]string) {
	names := [...]string{"flag:mergeJoin", "flag:broadcastJoin", "flag:shuffleCombine",
		"flag:spoolEager", "flag:filterPushdown", "flag:dopHigh"}
	for i := range out {
		var labels []string
		for bit, name := range names {
			if i&(1<<bit) != 0 {
				labels = append(labels, name)
			}
		}
		if i >= len(out)/2 {
			labels = append(labels, "cardScale")
		}
		out[i] = slices.Clip(labels)
	}
	return out
}()

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
}

// New builds an optimizer over a statistics view.
func New(v *stats.View) *Optimizer { return &Optimizer{View: v} }

// DefaultPlan compiles the query with all exploration flags off and no
// cardinality scaling — the plan MaxCompute would run with no learned
// steering. The guarded serving layer uses it as the native-fallback rung
// when the learned path is unavailable.
func DefaultPlan(v *stats.View, q *query.Query) *plan.Plan {
	return New(v).Optimize(q, Flags{})
}

// Optimize compiles a logical query into a physical plan under the given
// flags, cardinalities unscaled. The result is deterministic in (query, view,
// flags). It is the one-setting case of a planning Session; a scaled setting
// is planned through a Session.
func (o *Optimizer) Optimize(q *query.Query, f Flags) *plan.Plan {
	p, _ := NewSession(o.View, q).Plan(f, 0)
	return p
}

// RoughCost is the native expert cost model: the executor's per-operator
// work formula (exec.NodeWork) over *estimated* cardinalities, with no
// environment term. It ranks candidate plans for the explorer's top-k cut and
// mirrors how the native optimizer selects its default plan.
//
// A plan the explorer sealed with its rough cost (plan.SealRough) answers
// from the seal when it was sealed under this optimizer's view, so the
// guard's sentinel, which asks about plans the explorer has just costed, pays
// a lookup; every other plan is estimated and walked.
func (o *Optimizer) RoughCost(p *plan.Plan) float64 {
	if c, ok := p.SealedRough(o.View); ok {
		return c
	}
	est := cardinality.Estimator{Src: cardinality.ViewSource(o.View)}
	return roughCost(p.Root, est.Estimate(p.Root))
}

// scales reports whether a CardScale value actually scales (0 and 1 are off).
func scales(cardScale float64) bool { return cardScale > 0 && cardScale != 1 }

// roughCost sums the executor's per-operator work over root in preorder,
// reading cardinalities from cards. The expert model has the right
// functional form and feeds on wrong cardinalities — exactly the paper's
// diagnosis. It does not decompose stages: a node runs with the parallelism
// its plan asks for, 32 instances when it asks for none.
func roughCost(root *plan.Node, cards *cardinality.Result) float64 {
	total := 0.0
	root.Walk(func(n *plan.Node) {
		inst := 32
		if n.Parallelism > 0 {
			inst = n.Parallelism
		}
		total += exec.NodeWork(n, cards, inst)
	})
	return total
}

// Session is one request's planning state for one (view, query): everything
// a plan depends on that no steering setting changes — the selectivity of each
// table-local predicate and of each join edge's keys, each table's statistics
// facts, the join graph resolved to table slots, the join order before the
// card-scale rotation, each table's scan subplan — computed once and shared by
// every setting the request plans (the explorer plans up to ten). Of those,
// the numbers evaluated against the view are its Estimates, which a session
// of a repeat query can resume from (ResumeSession). It also holds the
// cardinalities of every node it built: the builder registers each node as it
// creates it, so every node is estimated once and sizing decisions read
// sub-plan rows back.
//
// Who owns a node. A planning builds the nodes above the scans in storage of
// the plan it returns, two to an allocation (pairs), so a plan that is held
// pins its own nodes and a plan that is dropped — a duplicate, one over the
// safety cut — is garbage. The scan subplans are allocated one subplan at a
// time and shared by every plan that scans the table that way. A plan
// therefore pins its own nodes and its scan subplans, and nothing else of the
// request.
//
// The slot rule. Every node the session builds is numbered (plan.Node.Slot)
// with a slot no other node of the session takes, and its cardinalities sit
// at that index of cards, and of scaled for a scaling planning. A node is
// registered once, when it is built, before any parent reads it, and a plan
// keeps its slots: its rows stay in the session for as long as the session
// lives.
//
// A Session belongs to one goroutine and one request. It keeps nothing past
// its own lifetime and only reads the view.
type Session struct {
	view *stats.View
	q    *query.Query
	est  cardinality.Estimator // never scales: the rough cost ranks unscaled

	tables []tableFacts // parallel to q.Tables, which are distinct
	joins  []joinEdge   // parallel to q.Joins
	base   []int        // join order as table slots, before scaleRotate
	// q.Aggs split the way aggregate nodes carry them; like q.GroupBy, every
	// plan of the session shares them.
	aggFuncs []plan.AggFunc
	aggCols  []expr.ColumnRef

	// scans holds each table's scan subplan — the scan, its Calc or Filter
	// and its HardPred where that is evaluated at the scan — by table slot
	// under the default rules, then by slot again under FilterPushdown; built
	// on first use and shared by every plan of the session that scans the
	// table that way. A shared node is never written again, and any one plan
	// holds it once.
	scans []*plan.Node
	// pushdown reports whether FilterPushdown changes any table's subplan.
	pushdown bool

	cards    *cardinality.Result // every node built, under est, by slot
	scaled   *cardinality.Result // the nodes of scaling plannings, under their estimator; nil until one is planned
	nextSlot int32               // the slot the next node gets

	joined []bool // scratch, by table slot
	order  []int  // scratch: the rotated join order
}

// ownedNode is a node with its child array inline: a node this optimizer
// builds has at most two children.
type ownedNode struct {
	plan.Node
	kids [2]*plan.Node
}

// pairs hands out the nodes of one plan, or of one scan subplan, two to an
// allocation. Go rounds every allocation up to a size class; an ownedNode is
// 224 bytes, and 224 and 448 are classes, so a held node pins exactly its own
// bytes. A node that would leave half of a pair unused — the last one asked
// for — gets an allocation of its own, so no pair spans two plans. One array
// of a plan's k nodes would waste up to 15% in its size class, and held plans
// are what a request history holds on to.
type pairs struct {
	spare *ownedNode // the second half of the latest pair, not yet handed out
}

// next returns a zeroed node; last says no other node of the plan follows.
func (p *pairs) next(last bool) *ownedNode {
	if n := p.spare; n != nil {
		p.spare = nil
		return n
	}
	if last {
		return new(ownedNode)
	}
	pair := new([2]ownedNode)
	p.spare = &pair[1]
	return &pair[0]
}

// tableFacts are the setting-independent facts of one query table.
type tableFacts struct {
	name string
	in   *query.TableInput
	tableEstimate
	// What FilterPushdown changes for the table. fuses: in.Pred is complex
	// enough that the default rules keep it a Filter where pushdown fuses it
	// into a Calc. defers: the default rules decline to push in.HardPred below
	// joins when no column statistics can justify the rewrite (§2.1: missing
	// statistics disable transformations) and place it above the table's first
	// join — so a query of one table, having no join, never defers.
	fuses, defers bool
}

// tableEstimate is what a session evaluates of one table against its view.
type tableEstimate struct {
	selPred   float64 // selectivity of in.Pred under the view (1 for nil)
	selHard   float64 // selectivity of in.HardPred under the view (1 for nil)
	partsRead int
	hasStats  bool
}

// Estimates are the numbers a session evaluates against its view before it
// plans any setting: each table's predicate selectivities, partitions read and
// whether it has column statistics, each join edge's key selectivity, and the
// join order before the card-scale rotation. No setting changes them, and they
// are a function of the view and of the query's planning key
// (query.Query.AppendPlanningKey) alone, so a session of a repeat query can
// take them from an earlier session (ResumeSession) instead of evaluating
// every predicate and join key again. They hold no pointer into the query
// they were evaluated for, and nothing writes them once taken: any number of
// sessions, on any goroutines, may read one.
type Estimates struct {
	view   *stats.View
	tables []tableEstimate // parallel to the query's tables
	joins  []float64       // each join edge's key selectivity, parallel to the query's joins
	base   []int           // the join order as table slots, before scaleRotate
}

// joinEdge is one join edge of the query, resolved once per session: its
// tables as slots (-1: not a table of the query), its form, its key columns as
// the one-element slices every join node over it carries (all edges' in one
// array), and the selectivity of those keys under the view.
type joinEdge struct {
	left, right       int
	form              plan.JoinForm
	leftKey, rightKey []expr.ColumnRef
	sel               float64
}

// maxPlanNodes bounds the nodes a plan of n tables has above its scans: per
// join the join and up to two exchanges, one deferred filter per table, the
// spool, up to three aggregate nodes and the select.
func maxPlanNodes(n int) int { return 3*(n-1) + n + 1 + 3 + 1 }

// maxScanNodes bounds a query's scan nodes: a scan, a Calc or Filter and a
// HardPred filter per table, under each pushdown setting.
func maxScanNodes(n int) int { return 2 * 3 * n }

// NewSession evaluates the setting-independent inputs of planning q against v.
func NewSession(v *stats.View, q *query.Query) *Session { return newSession(v, q, nil) }

// ResumeSession is NewSession with the estimates taken from e instead of
// evaluated: e must be what Estimates returned for a session of v and of a
// query with q's planning key. The session plans every setting to the plan,
// the rows and the rough cost NewSession(v, q)'s would, without evaluating a
// predicate, a join key or a join order. Estimates of another view, or of a
// query with another number of tables or joins, panic.
func ResumeSession(v *stats.View, q *query.Query, e *Estimates) *Session {
	if e.view != v || len(e.tables) != len(q.Tables) || len(e.joins) != len(q.Joins) {
		panic("nativeopt: ResumeSession with the estimates of another view or query")
	}
	return newSession(v, q, e)
}

// newSession builds a session of q over v from the estimates e, or — e nil —
// evaluates them first. Everything but where the estimates come from is one
// path: resolving the query's structure, and deriving from it and the
// estimates what FilterPushdown changes.
func newSession(v *stats.View, q *query.Query, e *Estimates) *Session {
	n := len(q.Tables)
	s := &Session{
		view:     v,
		q:        q,
		est:      cardinality.Estimator{Src: cardinality.ViewSource(v)},
		tables:   make([]tableFacts, n),
		joins:    make([]joinEdge, len(q.Joins)),
		scans:    make([]*plan.Node, 2*n),
		aggFuncs: aggFuncs(q.Aggs),
		aggCols:  aggCols(q.Aggs),
		cards:    cardinality.NewSlotted(1 + maxPlanNodes(n) + maxScanNodes(n)),
		nextSlot: 1,
		joined:   make([]bool, n),
		order:    make([]int, 0, n),
	}
	for i, name := range q.Tables {
		in := q.Input(name)
		t := &s.tables[i]
		*t = tableFacts{name: name, in: in, fuses: in.Pred.Size() > 2}
		if e != nil {
			t.tableEstimate = e.tables[i]
		} else {
			t.tableEstimate = estimateTable(v, name, in)
		}
		t.defers = in.HardPred != nil && !t.hasStats && n > 1
		s.pushdown = s.pushdown || t.fuses || t.defers
	}
	keys := make([]expr.ColumnRef, 2*len(q.Joins))
	for i, j := range q.Joins {
		keys[2*i], keys[2*i+1] = j.LeftCol, j.RightCol
		edge := &s.joins[i]
		*edge = joinEdge{
			left: s.slot(j.LeftTable), right: s.slot(j.RightTable), form: j.Form,
			leftKey: keys[2*i : 2*i+1 : 2*i+1], rightKey: keys[2*i+1 : 2*i+2 : 2*i+2],
		}
		if e != nil {
			edge.sel = e.joins[i]
		} else {
			edge.sel = s.est.KeySelectivity(edge.leftKey, edge.rightKey)
		}
	}
	if e != nil {
		s.base = e.base
	} else {
		s.base = s.baseOrder()
	}
	return s
}

// estimateTable evaluates a table's estimates against v.
func estimateTable(v *stats.View, name string, in *query.TableInput) tableEstimate {
	read := v.PartitionEstimate(name)
	if in.PartitionFrac < 1 {
		read = max(1, int(math.Ceil(in.PartitionFrac*float64(read))))
	}
	return tableEstimate{
		selPred:   expr.Selectivity(in.Pred, v),
		selHard:   expr.Selectivity(in.HardPred, v),
		partsRead: read,
		hasStats:  v.HasColumnStats(name),
	}
}

// Estimates returns the session's estimates, for a ResumeSession of a repeat
// of its query under its view. The copy shares nothing the session writes.
func (s *Session) Estimates() Estimates {
	e := Estimates{
		view:   s.view,
		tables: make([]tableEstimate, len(s.tables)),
		joins:  make([]float64, len(s.joins)),
		base:   s.base,
	}
	for i := range s.tables {
		e.tables[i] = s.tables[i].tableEstimate
	}
	for i := range s.joins {
		e.joins[i] = s.joins[i].sel
	}
	return e
}

func (s *Session) slot(table string) int {
	for i := range s.tables {
		if s.tables[i].name == table {
			return i
		}
	}
	return -1
}

// Plan compiles the query under one steering setting and returns the plan and
// the planning's decisive set.
//
// The plan's nodes above the scans are its own (see Session): no later
// planning writes them. It shares its scan subplans with the session's other
// plans: read it, Clone it to edit.
//
// The decisive set holds every flag whose value settled at least one choice
// of this planning — one its other value would have made differently, given
// everything planned up to it. By induction over the build's choices,
// Plan(f ∪ {x}, cardScale) builds this very plan whenever x is not in the
// set: the two builds meet every choice in the same state and x changes none
// (DESIGN.md "Plan exploration contract"). The set describes this planning
// alone, hence a return value and not session state.
func (s *Session) Plan(f Flags, cardScale float64) (*plan.Plan, Flags) {
	b := builder{s: s, flags: f, sizes: s.cards}
	scaled := scales(cardScale)
	if scaled {
		if s.scaled == nil {
			s.scaled = cardinality.NewSlotted(int(s.nextSlot) + maxPlanNodes(len(s.tables)) + maxScanNodes(len(s.tables)))
		}
		b.scaling = cardinality.Estimator{Src: s.est.Src, CardScale: cardScale}
		b.sizes = s.scaled
	}
	root := b.build(s.scaleRotate(s.base, cardScale))
	return &plan.Plan{Root: root, Knobs: f.knobs(scaled)}, b.decisive
}

// RoughCost returns the native rough cost (see Optimizer.RoughCost) of p, a
// plan of this session, from the rows its planning registered: a walk, no
// estimate. It is always the unscaled cost — cardScale steers which plan is
// built, not how candidates are ranked against each other.
func (s *Session) RoughCost(p *plan.Plan) float64 { return roughCost(p.Root, s.cards) }

// Scales reports whether a card scale can change the query's plan: scaleRotate
// keeps the order of fewer than three tables and the estimator scales only
// sub-plans spanning at least three, so below that every scale plans the
// unscaled plan.
func (s *Session) Scales() bool { return len(s.tables) >= 3 }

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
	nodes    pairs // the plan's nodes above the scans
}

// own copies v onto n as a node over the given children — registered already
// — numbers it with the session's next slot and registers it under the
// session's estimator; sel is the selectivity of v's own condition
// (cardinality.Estimator.AddFiltered), which the session already holds. v is
// taken by pointer so the 208-byte node is copied once, not once per call on
// the way down.
func (s *Session) own(n *ownedNode, v *plan.Node, sel float64, children ...*plan.Node) *plan.Node {
	n.Node = *v
	n.Slot = s.nextSlot
	s.nextSlot++
	n.Children = n.kids[:copy(n.kids[:], children)]
	s.est.AddFiltered(s.cards, &n.Node, sel)
	return &n.Node
}

// add makes v a node of the plan under construction.
func (b *builder) add(v *plan.Node, children ...*plan.Node) *plan.Node {
	return b.addFiltered(v, 1, children...)
}

// addFiltered is add for a node with a condition of its own: a filter or a
// join. The Select root is the plan's last node (see pairs).
func (b *builder) addFiltered(v *plan.Node, sel float64, children ...*plan.Node) *plan.Node {
	n := b.s.own(b.nodes.next(v.Op == plan.OpSelect), v, sel, children...)
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
		edge, flipped := s.findEdge(joined, t)
		current = b.buildJoin(current, b.scan(t), edge, flipped)
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
			current = b.add(&plan.Node{Op: op}, current)
		}
	}

	// 2. Aggregation.
	if len(s.q.Aggs) > 0 || len(s.q.GroupBy) > 0 {
		current = b.buildAgg(current)
	}

	return b.add(&plan.Node{Op: plan.OpSelect}, current)
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

// buildScan builds a table's scan subplan for good: the chain is allocated by
// itself, so a plan that scans the table this way pins it and no more.
func (s *Session) buildScan(t *tableFacts, pushdown bool) *plan.Node {
	in := t.in
	var chain [3]plan.Node
	var sel [3]float64
	chain[0], sel[0] = plan.Node{
		Op:              plan.OpTableScan,
		Table:           t.name,
		PartitionsRead:  t.partsRead,
		ColumnsAccessed: max(1, in.ColumnsAccessed),
	}, 1
	k := 1
	if in.Pred != nil {
		// Sargable predicates always land at the scan: simple ones fuse into
		// a Calc, complex ones stay a Filter (pushdown fuses everything).
		op := plan.OpFilter
		if pushdown || !t.fuses {
			op = plan.OpCalc
		}
		chain[k], sel[k] = plan.Node{Op: op, Pred: in.Pred}, t.selPred
		k++
	}
	// With statistics, or the flag forcing it, the non-sargable predicate is
	// evaluated at the scan (above it a Filter, not fused); deferred, it is
	// applyDeferred's.
	if in.HardPred != nil && (pushdown || !t.defers) {
		chain[k], sel[k] = plan.Node{Op: plan.OpFilter, Pred: in.HardPred}, t.selHard
		k++
	}
	var nodes pairs
	node := s.own(nodes.next(k == 1), &chain[0], sel[0])
	for i := 1; i < k; i++ {
		node = s.own(nodes.next(i == k-1), &chain[i], sel[i], node)
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
	return b.addFiltered(&plan.Node{Op: plan.OpFilter, Pred: t.in.HardPred}, t.selHard, n)
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
			edge, _ := s.findEdge(joined, t)
			var joinedSize float64
			if edge != nil {
				ndv := math.Max(s.est.Src.NDV(edge.leftKey[0]), s.est.Src.NDV(edge.rightKey[0]))
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
	out := append(s.order[:0], start)
	for len(out) < len(tables) {
		next := -1
		for _, t := range tables {
			if joined[t] {
				continue
			}
			if edge, _ := s.findEdge(joined, t); edge != nil {
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

// findEdge locates a join edge between the joined set and table slot t — nil
// when t is only reachable by cross join — and reports whether it must be
// flipped to put t on the right.
func (s *Session) findEdge(joined []bool, t int) (*joinEdge, bool) {
	for i := range s.joins {
		e := &s.joins[i]
		if e.left == t && e.right >= 0 && joined[e.right] {
			return e, true
		}
		if e.right == t && e.left >= 0 && joined[e.left] {
			return e, false
		}
	}
	return nil, false
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

// buildJoin attaches right to left over edge (nil: a cross join), flipped
// when the edge names right's table first, with physical operator selection
// based on estimated sizes.
func (b *builder) buildJoin(left, right *plan.Node, edge *joinEdge, flipped bool) *plan.Node {
	lRows := b.sizes.Rows(left)
	rRows := b.sizes.Rows(right)

	if edge == nil {
		// Cross join: nested loop, no exchange keys to hash on.
		return b.add(&plan.Node{Op: plan.OpNestedLoopJoin, JoinForm: plan.JoinInner}, left, right)
	}

	form, leftKey, rightKey := edge.form, edge.leftKey, edge.rightKey
	if flipped {
		form, leftKey, rightKey = flipForm(form), rightKey, leftKey
	}
	node := plan.Node{JoinForm: form, LeftCols: leftKey, RightCols: rightKey}
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
		right = b.add(&plan.Node{Op: plan.OpBroadcastExchange, Parallelism: dop}, right)
	default:
		// Sort-merge by default when the build side is too large to hash;
		// the merge-join flag forces it regardless — unless the edge is a
		// semi or anti join, whose operator replaces either below.
		large := rRows > mergeJoinThreshold
		b.decisive.MergeJoin = b.decisive.MergeJoin ||
			!large && form != plan.JoinSemi && form != plan.JoinAnti
		if large || b.flags.MergeJoin {
			node.Op = plan.OpMergeJoin
		} else {
			node.Op = plan.OpHashJoin
		}
		left = b.add(&plan.Node{Op: plan.OpExchange, Parallelism: dop}, left)
		right = b.add(&plan.Node{Op: plan.OpExchange, Parallelism: dop}, right)
	}
	switch form {
	case plan.JoinSemi:
		node.Op = plan.OpSemiJoin
	case plan.JoinAnti:
		node.Op = plan.OpAntiJoin
	}
	return b.addFiltered(&node, edge.sel, left, right)
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
		partial := b.add(&plan.Node{
			Op:        plan.OpPartialAggregate,
			AggFuncs:  b.s.aggFuncs,
			AggCols:   b.s.aggCols,
			GroupCols: q.GroupBy,
		}, input)
		ex := b.add(&plan.Node{Op: plan.OpExchange, Parallelism: dop}, partial)
		return b.add(&plan.Node{
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
	ex := b.add(&plan.Node{Op: plan.OpExchange, Parallelism: dop}, input)
	return b.add(&plan.Node{
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

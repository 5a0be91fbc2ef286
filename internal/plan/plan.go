package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"loam/internal/expr"
)

// Node is one operator in a physical plan tree. Only the attribute fields
// relevant to the node's operator type are populated (e.g. Table for
// TableScan, JoinForm/LeftCols/RightCols for joins).
type Node struct {
	Op       OpType  `json:"op"`
	Children []*Node `json:"children,omitempty"`

	// TableScan attributes (§4: table identifier, partitions and columns
	// accessed).
	Table           string `json:"table,omitempty"`
	PartitionsRead  int    `json:"partitionsRead,omitempty"`
	ColumnsAccessed int    `json:"columnsAccessed,omitempty"`

	// Join attributes.
	JoinForm  JoinForm         `json:"joinForm,omitempty"`
	LeftCols  []expr.ColumnRef `json:"leftCols,omitempty"`
	RightCols []expr.ColumnRef `json:"rightCols,omitempty"`

	// Aggregation attributes.
	AggFuncs  []AggFunc        `json:"aggFuncs,omitempty"`
	AggCols   []expr.ColumnRef `json:"aggCols,omitempty"`
	GroupCols []expr.ColumnRef `json:"groupCols,omitempty"`

	// Filter / Calc predicate.
	Pred *expr.Node `json:"pred,omitempty"`

	// Parallelism is the degree-of-parallelism hint for the stage containing
	// this node (0 = system default).
	Parallelism int `json:"parallelism,omitempty"`
}

// Plan is a full physical plan, plus the knob settings that produced it —
// the explorer records which flags were toggled so execution logs can carry
// the default/candidate domain label.
type Plan struct {
	Root *Node `json:"root"`
	// Knobs lists the exploration knobs applied ("flag:mergeJoin",
	// "cardScale:2.0", ...); empty for the default plan.
	Knobs []string `json:"knobs,omitempty"`

	// sealFP/sealed memoize Root.Fingerprint() for plans whose producer
	// promises not to mutate the tree afterwards (Seal). The seal is
	// plain state, not an atomic: it must be written before the plan is
	// shared (the explorer seals candidates at generation, on the serving
	// goroutine, before any worker sees them), and concurrent readers only
	// ever read it. Clone and JSON round-trips drop the seal, so a caller
	// who mutates a copy can never observe a stale fingerprint.
	sealFP uint64
	sealed bool

	// rough/roughScope memoize the native optimizer's rough cost of the
	// plan, under the same write-before-share and dropped-by-Clone/JSON
	// rules as the fingerprint seal. A rough cost is only meaningful for
	// the statistics it was estimated from, so the seal carries the scope
	// it was computed under and answers only for that scope (nil scope:
	// unsealed).
	rough      float64
	roughScope any
}

// IsDefault reports whether the plan was produced with no exploration knobs.
func (p *Plan) IsDefault() bool { return len(p.Knobs) == 0 }

// Seal memoizes and returns the plan's structural fingerprint. Sealing is a
// promise that the tree will not be mutated afterwards; it must happen
// before the plan is shared across goroutines (the explorer seals candidates
// at generation time). Idempotent: a sealed plan returns its stored value.
func (p *Plan) Seal() uint64 {
	if p.sealed {
		return p.sealFP
	}
	p.sealFP = p.Root.Fingerprint()
	p.sealed = true
	return p.sealFP
}

// SealedFingerprint returns the sealed fingerprint, if any.
func (p *Plan) SealedFingerprint() (uint64, bool) { return p.sealFP, p.sealed }

// SealRough stores cost as the plan's native rough cost under scope — an
// identity for everything the cost depends on besides the tree (the native
// optimizer passes its *stats.View, and seals only unscaled estimates). scope
// must be non-nil and comparable; the no-mutation and publish-before-share
// rules of Seal apply.
func (p *Plan) SealRough(scope any, cost float64) {
	p.rough = cost
	p.roughScope = scope
}

// SealedRough returns the sealed rough cost if one was stored under exactly
// this scope.
func (p *Plan) SealedRough(scope any) (float64, bool) {
	if p.roughScope == nil || p.roughScope != scope {
		return 0, false
	}
	return p.rough, true
}

// CacheFingerprint is the fingerprint used to key the predictor's
// plan-embedding cache: the sealed value when present (no tree walk — the
// serving hot path), otherwise a fresh Root.Fingerprint(). It never stores:
// an unsealed plan may be shared by concurrent readers, and memoizing here
// would race.
func (p *Plan) CacheFingerprint() uint64 {
	if p.sealed {
		return p.sealFP
	}
	return p.Root.Fingerprint()
}

// Clone deep-copies the plan. The copy is unsealed regardless of the
// receiver's seal state: a clone exists to be mutated, and a carried-over
// fingerprint or rough cost would go stale with the first edit.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	out := &Plan{Root: p.Root.Clone()}
	if len(p.Knobs) > 0 {
		out.Knobs = append([]string(nil), p.Knobs...)
	}
	return out
}

// Clone deep-copies the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := *n
	out.Children = nil
	if len(n.Children) > 0 {
		out.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = c.Clone()
		}
	}
	out.LeftCols = append([]expr.ColumnRef(nil), n.LeftCols...)
	out.RightCols = append([]expr.ColumnRef(nil), n.RightCols...)
	out.AggFuncs = append([]AggFunc(nil), n.AggFuncs...)
	out.AggCols = append([]expr.ColumnRef(nil), n.AggCols...)
	out.GroupCols = append([]expr.ColumnRef(nil), n.GroupCols...)
	out.Pred = n.Pred.Clone()
	return &out
}

// Walk visits every node in preorder.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Size returns the number of operators in the subtree.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Depth returns the height of the subtree (1 for a leaf, 0 for nil).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	best := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > best {
			best = d
		}
	}
	return best + 1
}

// Tables returns the distinct base tables scanned in the subtree, in
// first-appearance (preorder) order.
func (n *Node) Tables() []string {
	var out []string
	seen := map[string]bool{}
	n.Walk(func(m *Node) {
		if m.Op == OpTableScan && !seen[m.Table] {
			seen[m.Table] = true
			out = append(out, m.Table)
		}
	})
	return out
}

// Canonicalize returns an equivalent tree in which every node has at most
// two children: n-ary operators (Union) are rebalanced into left-deep binary
// chains, matching the paper's canonical-binary-tree assumption for the tree
// convolution.
func (n *Node) Canonicalize() *Node {
	if n == nil {
		return nil
	}
	out := n.Clone()
	out.canonicalizeInPlace()
	return out
}

func (n *Node) canonicalizeInPlace() {
	for _, c := range n.Children {
		c.canonicalizeInPlace()
	}
	for len(n.Children) > 2 {
		// Fold the first two children into a nested copy of this operator.
		nested := &Node{Op: n.Op, Children: []*Node{n.Children[0], n.Children[1]}}
		n.Children = append([]*Node{nested}, n.Children[2:]...)
	}
}

// Fingerprint returns a structural hash of the subtree covering operator
// types, attributes, and predicate shapes. Two plans with equal fingerprints
// are treated as duplicates by the explorer, and the predictor keys its
// plan-embedding cache on it, so fingerprinting runs on the serving hot path
// and must not allocate (see TestFingerprintZeroAlloc).
func (n *Node) Fingerprint() uint64 {
	return uint64(n.fingerprint(expr.NewHash()))
}

func (n *Node) fingerprint(h expr.Hash) expr.Hash {
	if n == nil {
		return h.Str("<nil>")
	}
	h = h.Uint64(uint64(n.Op))
	h = h.Str(n.Table)
	h = h.Int(n.PartitionsRead)
	h = h.Int(n.ColumnsAccessed)
	h = h.Int(int(n.JoinForm))
	for _, c := range n.LeftCols {
		h = c.AppendHash(h)
	}
	for _, c := range n.RightCols {
		h = c.AppendHash(h)
	}
	for _, a := range n.AggFuncs {
		h = h.Int(int(a))
	}
	for _, c := range n.AggCols {
		h = c.AppendHash(h)
	}
	for _, c := range n.GroupCols {
		h = c.AppendHash(h)
	}
	h = n.Pred.AppendHash(h) // nil-aware: a presence byte separates TRUE from any real predicate
	h = h.Int(n.Parallelism)
	h = h.Int(len(n.Children))
	for _, c := range n.Children {
		h = c.fingerprint(h)
	}
	return h
}

// Equal reports whether the two subtrees are the same plan: node for node,
// exactly the fields fingerprint folds (TestEqualCoversFingerprintFields holds
// the two to the same list). It is how the explorer finds duplicate plans
// without hashing them; subtrees the plans share by pointer compare in one
// step, as do predicates, which plans share with the query.
func (n *Node) Equal(m *Node) bool {
	if n == m {
		return true
	}
	if n == nil || m == nil {
		return false
	}
	return n.Op == m.Op && n.Table == m.Table &&
		n.PartitionsRead == m.PartitionsRead && n.ColumnsAccessed == m.ColumnsAccessed &&
		n.JoinForm == m.JoinForm && n.Parallelism == m.Parallelism &&
		slices.Equal(n.LeftCols, m.LeftCols) && slices.Equal(n.RightCols, m.RightCols) &&
		slices.Equal(n.AggFuncs, m.AggFuncs) && slices.Equal(n.AggCols, m.AggCols) &&
		slices.Equal(n.GroupCols, m.GroupCols) && n.Pred.Equal(m.Pred) &&
		slices.EqualFunc(n.Children, m.Children, (*Node).Equal)
}

// MarshalJSON round-trips the plan through encoding/json.
func (p *Plan) MarshalJSON() ([]byte, error) {
	type alias Plan
	return json.Marshal((*alias)(p))
}

// UnmarshalJSON round-trips the plan through encoding/json.
func (p *Plan) UnmarshalJSON(data []byte) error {
	type alias Plan
	return json.Unmarshal(data, (*alias)(p))
}

// String renders the plan as an indented operator tree.
func (p *Plan) String() string {
	var sb strings.Builder
	if len(p.Knobs) > 0 {
		fmt.Fprintf(&sb, "-- knobs: %s\n", strings.Join(p.Knobs, ", "))
	}
	p.Root.render(&sb, 0)
	return sb.String()
}

func (n *Node) render(sb *strings.Builder, depth int) {
	if n == nil {
		return
	}
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Op.String())
	switch {
	case n.Op == OpTableScan:
		fmt.Fprintf(sb, "(%s parts=%d cols=%d)", n.Table, n.PartitionsRead, n.ColumnsAccessed)
	case n.Op.IsJoin():
		fmt.Fprintf(sb, "(%s on %v=%v)", n.JoinForm, refs(n.LeftCols), refs(n.RightCols))
	case n.Op.IsAggregate():
		fmt.Fprintf(sb, "(%v by %v)", n.AggFuncs, refs(n.GroupCols))
	case n.Pred != nil:
		fmt.Fprintf(sb, "(%s)", n.Pred)
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		c.render(sb, depth+1)
	}
}

func refs(cols []expr.ColumnRef) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// LogNorm returns log-min-max-normalized v: log(1+v) scaled into [0,1] given
// an upper bound maxV (values above saturate at 1). This is the numeric
// normalization the paper applies to partition and column counts.
func LogNorm(v, maxV float64) float64 {
	if v < 0 {
		v = 0
	}
	if maxV <= 0 {
		return 0
	}
	x := math.Log1p(v) / math.Log1p(maxV)
	if x > 1 {
		return 1
	}
	return x
}

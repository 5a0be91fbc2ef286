package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the program-wide lock-acquisition graph over sync.Mutex /
// sync.RWMutex struct fields (guard, cluster, lifecycle, telemetry,
// feedback, ...) and enforces two contracts:
//
//  1. No cycles. An edge A → B means some function acquires B (directly, or
//     via a callee) while holding A. A cycle is a latent deadlock the moment
//     two goroutines take the locks in opposite orders.
//  2. No hook calls under a lock. Invoking a func-typed struct field (a
//     registered callback, e.g. a SetDriftHook target) or a func-typed
//     parameter while holding any lock hands control to arbitrary code that
//     may call back into the locked component — the classic re-entrant
//     deadlock seam. getOrCompute-style code must release before invoking.
//
// Lock identity is the (owning named type, field name) pair, so g.mu and
// other.guard.mu are the same lock for ordering purposes. Held-set tracking
// is a linear in-source-order scan per function: Lock/RLock adds, Unlock/
// RUnlock removes, defer Unlock holds to function end. Function literals are
// scanned as their own contexts (their bodies run later, not under the
// current held set). Acquisition summaries propagate over the call graph's
// resolved targets (direct calls and interface dispatch).
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "lock-acquisition graph is acyclic and hooks are never invoked under a lock",
		Run:  runLockOrder,
	}
}

// lockEdge is one observed acquisition order: to was acquired while from was
// held, at pos (via names the callee chain when indirect).
type lockEdge struct {
	from, to lockID
	pos      token.Pos
	via      string
}

func runLockOrder(prog *Program) []Finding {
	cg := prog.CallGraph()

	// Pass 1: per-function direct scans — acquisitions, hook-under-lock
	// findings, and calls made under a held set.
	acquires := map[*FuncNode]map[lockID]token.Pos{} // locks a function takes directly
	type heldCall struct {
		held map[lockID]token.Pos
		site *CallSite
	}
	heldCalls := map[*FuncNode][]heldCall{}
	var edges []lockEdge
	var out []Finding

	for _, node := range cg.Nodes {
		sc := &lockScan{prog: prog, info: prog.Typed(node.Pkg).Info, node: node,
			acquired: map[lockID]token.Pos{}}
		sc.scan(node.Decl.Body, map[lockID]token.Pos{})
		acquires[node] = sc.acquired
		for _, hc := range sc.calls {
			heldCalls[node] = append(heldCalls[node], heldCall{held: hc.held, site: hc.site})
		}
		edges = append(edges, sc.edges...)
		out = append(out, sc.findings...)
	}

	// Pass 2: transitive acquisition summaries over resolved call targets.
	summary := map[*FuncNode]map[lockID]bool{}
	var summarize func(n *FuncNode, stack map[*FuncNode]bool) map[lockID]bool
	summarize = func(n *FuncNode, stack map[*FuncNode]bool) map[lockID]bool {
		if s, ok := summary[n]; ok {
			return s
		}
		if stack[n] {
			return nil // recursion: the cycle's locks surface via other paths
		}
		stack[n] = true
		defer delete(stack, n)
		s := map[lockID]bool{}
		for l := range acquires[n] {
			s[l] = true
		}
		for _, site := range n.Calls {
			for _, t := range site.Targets {
				for l := range summarize(t, stack) {
					s[l] = true
				}
			}
		}
		summary[n] = s
		return s
	}
	for _, n := range cg.Nodes {
		summarize(n, map[*FuncNode]bool{})
	}

	// Pass 3: indirect edges — a call made under a held set reaches every
	// lock in the callee's summary.
	for _, n := range cg.Nodes {
		for _, hc := range heldCalls[n] {
			for _, t := range hc.site.Targets {
				for _, to := range sortedLocks(summary[t]) {
					for _, from := range sortedLocks(hc.held) {
						if from != to {
							edges = append(edges, lockEdge{from: from, to: to, pos: hc.held[from], via: t.Name()})
						}
					}
				}
			}
		}
	}

	out = append(out, lockCycles(prog, edges)...)
	return out
}

// sortedLocks returns a map's lock keys in name order — every iteration over
// a held set or summary goes through this, keeping findings deterministic.
func sortedLocks[V any](m map[lockID]V) []lockID {
	out := make([]lockID, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// lockCycles detects cycles in the acquisition graph and reports each once,
// at the lexically first edge position on the cycle.
func lockCycles(prog *Program, edges []lockEdge) []Finding {
	succ := map[lockID]map[lockID]lockEdge{}
	var nodes []lockID
	seenNode := map[lockID]bool{}
	addNode := func(l lockID) {
		if !seenNode[l] {
			seenNode[l] = true
			nodes = append(nodes, l)
		}
	}
	for _, e := range edges {
		addNode(e.from)
		addNode(e.to)
		if succ[e.from] == nil {
			succ[e.from] = map[lockID]lockEdge{}
		}
		if old, ok := succ[e.from][e.to]; !ok || e.pos < old.pos {
			succ[e.from][e.to] = e
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })

	var out []Finding
	reported := map[string]bool{}
	// DFS from each node in name order; a back edge closes a cycle.
	var stack []lockID
	onStack := map[lockID]bool{}
	done := map[lockID]bool{}
	var visit func(l lockID)
	visit = func(l lockID) {
		stack = append(stack, l)
		onStack[l] = true
		next := make([]lockID, 0, len(succ[l]))
		for to := range succ[l] {
			next = append(next, to)
		}
		sort.Slice(next, func(i, j int) bool { return next[i].String() < next[j].String() })
		for _, to := range next {
			if onStack[to] {
				out = append(out, cycleFinding(prog, stack, to, succ, reported)...)
				continue
			}
			if !done[to] {
				visit(to)
			}
		}
		onStack[l] = false
		done[l] = true
		stack = stack[:len(stack)-1]
	}
	for _, l := range nodes {
		if !done[l] {
			visit(l)
		}
	}
	return out
}

// cycleFinding renders the cycle closing at `to` on the current DFS stack.
func cycleFinding(prog *Program, stack []lockID, to lockID, succ map[lockID]map[lockID]lockEdge, reported map[string]bool) []Finding {
	i := 0
	for ; i < len(stack); i++ {
		if stack[i] == to {
			break
		}
	}
	cycle := append(append([]lockID{}, stack[i:]...), to)
	// Canonical key: rotate so the lexically smallest lock leads.
	names := make([]string, len(cycle)-1)
	for j := 0; j < len(cycle)-1; j++ {
		names[j] = cycle[j].String()
	}
	min := 0
	for j, n := range names {
		if n < names[min] {
			min = j
		}
	}
	canon := append(append([]string{}, names[min:]...), names[:min]...)
	key := strings.Join(canon, "->")
	if reported[key] {
		return nil
	}
	reported[key] = true

	// Report at the earliest edge position on the cycle.
	pos := token.Pos(0)
	for j := 0; j < len(cycle)-1; j++ {
		e := succ[cycle[j]][cycle[j+1]]
		if pos == 0 || e.pos < pos {
			pos = e.pos
		}
	}
	return []Finding{{
		Pos:  prog.Fset.Position(pos),
		Rule: "lockorder",
		Message: fmt.Sprintf("lock-order cycle: %s -> %s",
			strings.Join(canon, " -> "), canon[0]),
		Suggestion: "impose a single acquisition order (document it on the outermost type) or release before calling across components",
	}}
}

// lockScan walks one function body in source order tracking the held set.
type lockScan struct {
	prog *Program
	info *types.Info
	node *FuncNode

	acquired map[lockID]token.Pos // every lock this function takes directly
	edges    []lockEdge           // direct nested acquisitions
	findings []Finding            // hook-under-lock violations
	calls    []struct {
		held map[lockID]token.Pos
		site *CallSite
	}
	siteIdx int // cursor into node.Calls (populated in the same source order)
}

// scan processes a statement block under the given held set. The held map is
// mutated in place: Go's block structure doesn't scope lock lifetimes, so a
// linear source-order approximation is the honest model.
func (s *lockScan) scan(body ast.Node, held map[lockID]token.Pos) {
	deferred := map[lockID]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// Literal bodies run later under their own lock context; any
			// call sites inside still occupy slots in node.Calls, so recurse
			// with a fresh held set to keep the cursor aligned.
			s.scan(v.Body, map[lockID]token.Pos{})
			return false
		case *ast.DeferStmt:
			if id, kind, ok := s.lockCall(v.Call); ok && strings.Contains(kind, "Unlock") {
				deferred[id] = true
				s.consumeSite(v.Call)
				return false
			}
			return true
		case *ast.CallExpr:
			if id, kind, ok := s.lockCall(v); ok {
				switch kind {
				case "Lock", "RLock":
					for _, from := range sortedLocks(held) {
						if from != id {
							s.edges = append(s.edges, lockEdge{from: from, to: id, pos: v.Pos()})
						}
					}
					held[id] = v.Pos()
					if _, ok := s.acquired[id]; !ok {
						s.acquired[id] = v.Pos()
					}
				case "Unlock", "RUnlock":
					if !deferred[id] {
						delete(held, id)
					}
				}
				s.consumeSite(v)
				return false
			}
			site := s.consumeSite(v)
			if len(held) > 0 {
				heldCopy := map[lockID]token.Pos{}
				for k, p := range held {
					heldCopy[k] = p
				}
				s.calls = append(s.calls, struct {
					held map[lockID]token.Pos
					site *CallSite
				}{held: heldCopy, site: site})
				s.hookCheck(v, site, heldCopy)
			}
		}
		return true
	})
}

// consumeSite advances the call-site cursor to the entry for this call
// expression. resolveBody visits calls in the same pre-order, so the cursor
// normally lands exactly; position matching keeps it honest.
func (s *lockScan) consumeSite(call *ast.CallExpr) *CallSite {
	for i := s.siteIdx; i < len(s.node.Calls); i++ {
		if s.node.Calls[i].Call == call {
			s.siteIdx = i + 1
			return s.node.Calls[i]
		}
	}
	return nil
}

// lockCall recognizes x.mu.Lock()/Unlock()/RLock()/RUnlock() on a mutex
// field and returns the lock identity plus the method name.
func (s *lockScan) lockCall(call *ast.CallExpr) (lockID, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockID{}, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockID{}, "", false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockID{}, "", false
	}
	id, ok := lockFieldOf(s.info, inner)
	if !ok {
		return lockID{}, "", false
	}
	return id, sel.Sel.Name, true
}

// hookCheck flags calls through func-typed struct fields or func-typed
// parameters while any lock is held.
func (s *lockScan) hookCheck(call *ast.CallExpr, site *CallSite, held map[lockID]token.Pos) {
	if site == nil {
		return
	}
	var kind, name string
	switch {
	case site.HookField != nil:
		kind, name = "hook field", site.HookField.Name()
	case site.FuncValue != nil && isParamOf(s.node, site.FuncValue):
		kind, name = "callback parameter", site.FuncValue.Name()
	default:
		return
	}
	if _, isFunc := site.HookFieldType(); site.HookField != nil && !isFunc {
		return
	}
	locks := make([]string, 0, len(held))
	for l := range held {
		locks = append(locks, l.String())
	}
	sort.Strings(locks)
	s.findings = append(s.findings, Finding{
		Pos:  s.prog.Fset.Position(call.Pos()),
		Rule: "lockorder",
		Message: fmt.Sprintf("%s %q invoked while holding %s (in %s)",
			kind, name, strings.Join(locks, ", "), s.node.Name()),
		Suggestion: "copy the hook under the lock, release, then invoke (see guard.observeLearned)",
	})
}

// HookFieldType reports whether the hook field is func-typed.
func (c *CallSite) HookFieldType() (*types.Signature, bool) {
	if c.HookField == nil {
		return nil, false
	}
	sig, ok := c.HookField.Type().Underlying().(*types.Signature)
	return sig, ok
}

// isParamOf reports whether v is a parameter of the node's declaration.
func isParamOf(node *FuncNode, v *types.Var) bool {
	sig, ok := node.Obj.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return true
		}
	}
	return false
}

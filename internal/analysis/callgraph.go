package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is the program-wide resolved call graph over non-test function
// declarations, the reusable index behind allocdiscipline, lockorder,
// ctxflow, and the typed inferencepurity migration.
//
// Resolution is two-tier:
//
//   - static: a call whose callee identifier resolves (types.Info.Uses) to a
//     *types.Func declared in this module gets a direct edge. Interface
//     method calls are resolved to every in-module named type that
//     implements the interface (types.Implements) and declares the method —
//     the "resolved" part of interface dispatch.
//   - name fallback: calls through stored function values, func-typed
//     fields, and anything else the checker cannot pin to a declaration fall
//     back to linking every in-module function sharing the callee's
//     syntactic name. Method and function *values* (references outside call
//     position) likewise link the referencing function to the referenced
//     declaration, so a method passed as a callback stays reachable.
//
// Both tiers over-approximate reachability — the safe direction for the
// contracts built on top (a function wrongly considered reachable produces
// at worst a spurious finding to review; one wrongly dropped hides a real
// violation).
type CallGraph struct {
	prog *Program
	// Nodes, sorted by file path then position — deterministic order.
	Nodes []*FuncNode

	byObj  map[*types.Func]*FuncNode
	byName map[string][]*FuncNode
}

// FuncNode is one function or method declaration.
type FuncNode struct {
	Pkg  *Package
	File *File
	Decl *ast.FuncDecl
	// Obj is the checker's object for the declaration; nil when the
	// declaring package failed to type-check.
	Obj *types.Func

	// Calls are the resolved call sites in body order (including bodies of
	// nested function literals, attributed to this declaration).
	Calls []*CallSite
	// edges are the deduplicated outgoing targets (calls + value refs).
	edges []*FuncNode
}

// Name returns the bare declared name.
func (n *FuncNode) Name() string { return n.Decl.Name.Name }

// ID renders "importpath.Name" or "importpath.(Recv).Name" for messages.
func (n *FuncNode) ID() string {
	if n.Obj != nil {
		if named := recvNamed(n.Obj); named != nil {
			return n.Pkg.ImportPath + ".(" + named.Obj().Name() + ")." + n.Name()
		}
	}
	return n.Pkg.ImportPath + "." + n.Name()
}

// CallSite is one call expression inside a FuncNode.
type CallSite struct {
	Caller *FuncNode
	Call   *ast.CallExpr
	// Targets are the in-module callees this site may reach (empty for
	// stdlib and builtin calls).
	Targets []*FuncNode
	// Static is true when Targets came from checker resolution (direct or
	// interface dispatch), false for the name fallback.
	Static bool
	// StaticObj is the resolved callee object when the checker pinned one,
	// whether or not it is declared in-module (stdlib calls keep it too).
	StaticObj *types.Func
	// HookField is set when the callee expression is a func-typed struct
	// field — a registered hook/callback seam (e.g. a SetDriftHook target).
	HookField *types.Var
	// FuncValue is set when the callee is a func-typed variable or
	// parameter (a stored callback invoked indirectly).
	FuncValue *types.Var
}

// BuildCallGraph constructs (or returns the memoized) call graph.
func (prog *Program) BuildCallGraph() *CallGraph {
	prog.cgMu.Lock()
	defer prog.cgMu.Unlock()
	if prog.cg != nil {
		return prog.cg
	}
	cg := &CallGraph{
		prog:   prog,
		byObj:  map[*types.Func]*FuncNode{},
		byName: map[string][]*FuncNode{},
	}
	// Pass 1: nodes.
	prog.eachSourceFile(func(pkg *Package, f *File) {
		if strings.HasSuffix(pkg.Name, "_test") {
			return
		}
		ti := prog.Typed(pkg)
		for _, fn := range fileFuncs(f) {
			node := &FuncNode{Pkg: pkg, File: f, Decl: fn.Decl}
			if ti != nil {
				if obj, ok := ti.Info.Defs[fn.Decl.Name].(*types.Func); ok {
					node.Obj = obj
					cg.byObj[obj] = node
				}
			}
			cg.Nodes = append(cg.Nodes, node)
			cg.byName[node.Name()] = append(cg.byName[node.Name()], node)
		}
	})
	// Pass 2: edges.
	for _, node := range cg.Nodes {
		cg.resolveBody(node)
	}
	prog.cg = cg
	return cg
}

// resolveBody walks one declaration body, recording call sites and edges.
func (cg *CallGraph) resolveBody(node *FuncNode) {
	ti := cg.prog.Typed(node.Pkg)
	var info *types.Info
	if ti != nil {
		info = ti.Info
	}
	seen := map[*FuncNode]bool{}
	addEdge := func(t *FuncNode) {
		if t != nil && !seen[t] {
			seen[t] = true
			node.edges = append(node.edges, t)
		}
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			site := cg.resolveCall(node, info, v)
			node.Calls = append(node.Calls, site)
			for _, t := range site.Targets {
				addEdge(t)
			}
		case *ast.SelectorExpr, *ast.Ident:
			// Function/method values: a reference outside call position makes
			// the referenced declaration reachable (it may be invoked later
			// through the stored value).
			if info == nil {
				return true
			}
			if id := selIdent(n); id != nil {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					addEdge(cg.byObj[fn])
				}
			}
		}
		return true
	})
	// Deterministic edge order for consumers that iterate.
	sort.Slice(node.edges, func(i, j int) bool {
		return node.edges[i].Decl.Pos() < node.edges[j].Decl.Pos()
	})
}

// selIdent returns the identifier naming a selector's member or a bare
// identifier (the shapes that can reference a function value).
func selIdent(n ast.Node) *ast.Ident {
	switch v := n.(type) {
	case *ast.SelectorExpr:
		return v.Sel
	case *ast.Ident:
		return v
	}
	return nil
}

// resolveCall resolves one call expression.
func (cg *CallGraph) resolveCall(caller *FuncNode, info *types.Info, call *ast.CallExpr) *CallSite {
	site := &CallSite{Caller: caller, Call: call}
	fun := ast.Unparen(call.Fun)

	var calleeName string
	switch v := fun.(type) {
	case *ast.Ident:
		calleeName = v.Name
		if info != nil {
			switch obj := info.Uses[v].(type) {
			case *types.Func:
				site.Static = true
				site.StaticObj = obj
				if t := cg.byObj[obj]; t != nil {
					site.Targets = []*FuncNode{t}
				}
				return site
			case *types.Builtin:
				return site // make/new/append/... — no targets
			case *types.TypeName:
				return site // conversion T(x) — not a call edge
			case *types.Var:
				site.FuncValue = obj
			}
		}
	case *ast.SelectorExpr:
		calleeName = v.Sel.Name
		if info != nil {
			if sel := info.Selections[v]; sel != nil {
				switch sel.Kind() {
				case types.MethodVal, types.MethodExpr:
					fn := sel.Obj().(*types.Func)
					site.StaticObj = fn
					if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
						// Interface dispatch: resolve to every in-module
						// implementation declaring this method.
						site.Static = true
						site.Targets = cg.implementors(iface, calleeName)
						return site
					}
					site.Static = true
					if t := cg.byObj[fn]; t != nil {
						site.Targets = []*FuncNode{t}
					}
					return site
				case types.FieldVal:
					if fld, ok := sel.Obj().(*types.Var); ok {
						site.HookField = fld
					}
				}
			} else if obj, ok := info.Uses[v.Sel].(*types.Func); ok {
				// Package-qualified call pkg.F(...).
				site.Static = true
				site.StaticObj = obj
				if t := cg.byObj[obj]; t != nil {
					site.Targets = []*FuncNode{t}
				}
				return site
			} else if obj, ok := info.Uses[v.Sel].(*types.TypeName); ok && obj != nil {
				return site // conversion pkg.T(x)
			}
		}
	case *ast.FuncLit:
		return site // immediately-invoked literal: body already walked inline
	default:
		return site // index/complex callee expressions: fall through by name
	}

	// Name fallback: stored function values, func-typed fields, or no type
	// info at all — link every in-module declaration sharing the name.
	site.Targets = cg.byName[calleeName]
	return site
}

// implementors returns the in-module named types implementing iface that
// declare (or inherit) a method with the given name, as call-graph nodes.
func (cg *CallGraph) implementors(iface *types.Interface, method string) []*FuncNode {
	var out []*FuncNode
	for _, node := range cg.Nodes {
		if node.Obj == nil || node.Name() != method {
			continue
		}
		named := recvNamed(node.Obj)
		if named == nil {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			out = append(out, node)
		}
	}
	if len(out) == 0 {
		// No known implementor (the concrete types may live outside the
		// module, or failed to check): fall back to the name tier.
		return cg.byName[method]
	}
	return out
}

// NodesByName returns the declarations sharing a bare name (the fallback
// index), in deterministic order.
func (cg *CallGraph) NodesByName(name string) []*FuncNode { return cg.byName[name] }

// RootSpec names a reachability root as "pkgsuffix.FuncName": the package
// import path must end with pkgsuffix and the declaration's bare name must
// equal FuncName (methods match by bare name, any receiver). Fixture modules
// load under their own module path, so suffix matching keeps them subject to
// the same roots as the real repo.
type RootSpec struct {
	PkgSuffix string
	Name      string
}

// ParseRootSpec splits "internal/predictor.PredictCost" on the last dot.
func ParseRootSpec(s string) (RootSpec, bool) {
	i := strings.LastIndex(s, ".")
	if i <= 0 || i == len(s)-1 {
		return RootSpec{}, false
	}
	return RootSpec{PkgSuffix: s[:i], Name: s[i+1:]}, true
}

// Matches reports whether a node is named by the spec.
func (r RootSpec) Matches(n *FuncNode) bool {
	if n.Name() != r.Name {
		return false
	}
	p := n.Pkg.ImportPath
	return p == r.PkgSuffix || strings.HasSuffix(p, "/"+r.PkgSuffix) || strings.HasSuffix(p, r.PkgSuffix)
}

// Roots resolves specs to their matching nodes, deduplicated, in node order.
func (cg *CallGraph) Roots(specs []RootSpec) []*FuncNode {
	var out []*FuncNode
	for _, n := range cg.Nodes {
		for _, r := range specs {
			if r.Matches(n) {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// ReachableFrom returns every node reachable from roots (roots included)
// over call and value-reference edges, plus a parent map for rendering the
// chain back to a root in findings.
func (cg *CallGraph) ReachableFrom(roots []*FuncNode) (map[*FuncNode]bool, map[*FuncNode]*FuncNode) {
	reach := map[*FuncNode]bool{}
	parent := map[*FuncNode]*FuncNode{}
	queue := append([]*FuncNode(nil), roots...)
	for _, r := range roots {
		reach[r] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, t := range n.edges {
			if !reach[t] {
				reach[t] = true
				parent[t] = n
				queue = append(queue, t)
			}
		}
	}
	return reach, parent
}

// rootOf walks the parent map back to the BFS root of n.
func rootOf(n *FuncNode, parent map[*FuncNode]*FuncNode) *FuncNode {
	for parent[n] != nil {
		n = parent[n]
	}
	return n
}

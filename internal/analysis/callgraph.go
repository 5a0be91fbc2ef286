package analysis

import (
	"go/ast"
	"go/types"
)

// CallGraph indexes every non-test function declaration with its call sites
// as the checker resolves them — the shared index behind lockorder and
// ctxflow.
//
// A call whose callee identifier resolves (types.Info.Uses / Selections) to a
// *types.Func gets that object as StaticObj and, when the function is
// declared in this module, its node as the target. Interface method calls
// resolve to every in-module named type that implements the interface
// (types.Implements) and declares the method. Calls the checker cannot pin to
// a declaration — stored function values, func-typed struct fields — get no
// target; the site records which variable or field was invoked instead, which
// is what lockorder's hook-under-lock rule reads.
type CallGraph struct {
	// Nodes, sorted by file path then position — deterministic order.
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
}

// FuncNode is one function or method declaration.
type FuncNode struct {
	Pkg  *Package
	File *File
	Decl *ast.FuncDecl
	// Obj is the checker's object for the declaration.
	Obj *types.Func

	// Calls are the call sites in body order (including bodies of nested
	// function literals, attributed to this declaration).
	Calls []*CallSite
}

// Name returns the bare declared name.
func (n *FuncNode) Name() string { return n.Decl.Name.Name }

// CallSite is one call expression inside a FuncNode.
type CallSite struct {
	Call *ast.CallExpr
	// Targets are the in-module declarations this site calls: one for a
	// direct call, every implementor for an interface method call, none for
	// stdlib, builtin and indirect calls.
	Targets []*FuncNode
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

// CallGraph returns the program's call graph, built at load time.
func (prog *Program) CallGraph() *CallGraph { return prog.cg }

func buildCallGraph(prog *Program) *CallGraph {
	cg := &CallGraph{byObj: map[*types.Func]*FuncNode{}}
	// Pass 1: nodes.
	prog.eachSourceFile(func(pkg *Package, f *File) {
		info := prog.Typed(pkg).Info
		for _, fn := range fileFuncs(f) {
			node := &FuncNode{Pkg: pkg, File: f, Decl: fn.Decl, Obj: info.Defs[fn.Decl.Name].(*types.Func)}
			cg.byObj[node.Obj] = node
			cg.Nodes = append(cg.Nodes, node)
		}
	})
	// Pass 2: call sites.
	for _, node := range cg.Nodes {
		info := prog.Typed(node.Pkg).Info
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				node.Calls = append(node.Calls, cg.resolveCall(info, call))
			}
			return true
		})
	}
	return cg
}

// resolveCall resolves one call expression.
func (cg *CallGraph) resolveCall(info *types.Info, call *ast.CallExpr) *CallSite {
	site := &CallSite{Call: call}
	static := func(fn *types.Func) *CallSite {
		site.StaticObj = fn
		if t := cg.byObj[fn]; t != nil {
			site.Targets = []*FuncNode{t}
		}
		return site
	}
	switch v := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[v].(type) {
		case *types.Func:
			return static(obj)
		case *types.Var:
			site.FuncValue = obj
		}
	case *ast.SelectorExpr:
		sel := info.Selections[v]
		if sel == nil {
			// Package-qualified call pkg.F(...); a conversion pkg.T(x)
			// resolves to a TypeName and stays target-less.
			if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
				return static(fn)
			}
			return site
		}
		switch sel.Kind() {
		case types.MethodVal, types.MethodExpr:
			fn := sel.Obj().(*types.Func)
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				site.StaticObj = fn
				site.Targets = cg.implementors(iface, fn.Name())
				return site
			}
			return static(fn)
		case types.FieldVal:
			site.HookField, _ = sel.Obj().(*types.Var)
		}
	}
	return site
}

// implementors returns the in-module named types implementing iface that
// declare a method with the given name, as call-graph nodes.
func (cg *CallGraph) implementors(iface *types.Interface, method string) []*FuncNode {
	var out []*FuncNode
	for _, node := range cg.Nodes {
		if node.Name() != method {
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
	return out
}

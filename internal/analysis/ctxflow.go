package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxFlow enforces the deadline-propagation contract on the serving path:
//
//  1. context.Background() / context.TODO() are banned outside package main,
//     test files, and the internal/walltime boundary. A fresh root context
//     in library code severs the caller's deadline and cancellation — the
//     guard hands a canceled caller its own ctx.Err() (DESIGN.md
//     "Degraded-mode serving contract") only if that context reaches it.
//  2. A function that receives a context.Context must thread it to every
//     in-module callee that accepts one: calling a ctx-aware callee with
//     anything not derived from the incoming context drops the deadline on
//     the floor. Derivation is tracked through local assignments
//     (ctx2, cancel := context.WithTimeout(ctx, ...) counts as threading).
func CtxFlow() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "contexts are threaded to every ctx-aware callee; no fresh root contexts outside main/tests/walltime",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(prog *Program) []Finding {
	var out []Finding
	for _, node := range prog.CallGraph().Nodes {
		if node.Pkg.Name == "main" || strings.HasSuffix(node.Pkg.ImportPath, "/walltime") {
			continue
		}
		info := prog.Typed(node.Pkg).Info
		out = append(out, freshRootContexts(prog, node, info)...)
		out = append(out, droppedContexts(prog, node, info)...)
	}
	return out
}

// freshRootContexts flags context.Background() / context.TODO() calls.
func freshRootContexts(prog *Program, node *FuncNode, info *types.Info) []Finding {
	var out []Finding
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
			return true
		}
		obj, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			return true
		}
		out = append(out, Finding{
			Pos:  prog.Fset.Position(call.Pos()),
			Rule: "ctxflow",
			Message: fmt.Sprintf("context.%s creates a fresh root context in library code (in %s)",
				sel.Sel.Name, node.Name()),
			Suggestion: "accept a context.Context parameter and thread the caller's deadline through",
		})
		return true
	})
	return out
}

// droppedContexts flags calls to ctx-aware in-module callees made with a
// context not derived from the function's own context parameter.
func droppedContexts(prog *Program, node *FuncNode, info *types.Info) []Finding {
	ctxParam := contextParam(node, info)
	if ctxParam == nil {
		return nil
	}
	tainted := ctxDerived(node, info, ctxParam)

	var out []Finding
	seen := map[string]bool{}
	for _, site := range node.Calls {
		sig := calleeCtxSignature(site)
		if sig == nil {
			continue
		}
		if len(site.Call.Args) == 0 {
			continue
		}
		arg := site.Call.Args[0]
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || !isContextType(tv.Type) {
			continue // first arg is not the context (variadic shapes etc.)
		}
		if mentionsAny(info, arg, tainted) {
			continue
		}
		callee := exprString(site.Call.Fun)
		pos := prog.Fset.Position(site.Call.Pos())
		key := fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Finding{
			Pos:  pos,
			Rule: "ctxflow",
			Message: fmt.Sprintf("%s receives a context not derived from %q: the caller's deadline is dropped (in %s)",
				callee, ctxParam.Name(), node.Name()),
			Suggestion: "pass the incoming context (or one derived from it via context.With*)",
		})
	}
	return out
}

// contextParam returns the declaration's context.Context parameter object,
// or nil. The blank identifier never counts — discarding a context by name
// is an explicit choice the analyzer respects.
func contextParam(node *FuncNode, info *types.Info) *types.Var {
	if node.Decl.Type.Params == nil {
		return nil
	}
	for _, fld := range node.Decl.Type.Params.List {
		for _, name := range fld.Names {
			if name.Name == "_" {
				continue
			}
			obj, ok := info.Defs[name].(*types.Var)
			if ok && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// ctxDerived computes the set of objects carrying the incoming context: the
// parameter itself plus every local whose initializer mentions one of them
// (two passes cover the re-assignment chains that occur in practice).
func ctxDerived(node *FuncNode, info *types.Info, ctxParam *types.Var) map[types.Object]bool {
	tainted := map[types.Object]bool{ctxParam: true}
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			rhsTainted := false
			for _, rhs := range assign.Rhs {
				if mentionsAny(info, rhs, tainted) {
					rhsTainted = true
				}
			}
			if !rhsTainted {
				return true
			}
			for _, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var obj types.Object
				if assign.Tok == token.DEFINE {
					obj = info.Defs[id]
				} else {
					obj = info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok && isContextType(v.Type()) {
					tainted[obj] = true
				}
			}
			return true
		})
	}
	return tainted
}

// mentionsAny reports whether expr references any of the given objects.
func mentionsAny(info *types.Info, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeCtxSignature returns the callee's signature when its first parameter
// is a context.Context and the checker resolved the callee (in-module or
// stdlib).
func calleeCtxSignature(site *CallSite) *types.Signature {
	if site.StaticObj == nil {
		return nil
	}
	sig, ok := site.StaticObj.Type().(*types.Signature)
	if !ok || sig.Params() == nil || sig.Params().Len() == 0 {
		return nil
	}
	if !isContextType(sig.Params().At(0).Type()) {
		return nil
	}
	return sig
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the seed-reproducibility contract (DESIGN.md:
// "Everything in the repo is seed-reproducible"):
//
//   - math/rand must not be imported outside internal/simrand — all
//     randomness flows through named, derivable simrand streams;
//   - time.Now / time.Since must not be called outside internal/walltime —
//     wall-clock readings are metrics-only and must never feed simulated
//     state;
//   - `for range` over a map must not feed order-sensitive sinks: appending
//     to an outer slice (unless the slice is sorted afterwards in the same
//     function), printing, accumulating with += , or calling into shared
//     mutable state, all observe Go's randomized map iteration order.
func Determinism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid unseeded randomness, wall-clock reads, and order-sensitive map iteration",
		Run:  runDeterminism,
	}
}

func runDeterminism(prog *Program) []Finding {
	var out []Finding
	prog.eachSourceFile(func(pkg *Package, f *File) {
		// Forbidden imports.
		for _, imp := range f.AST.Imports {
			path, _ := stringLit(imp.Path)
			if path == "math/rand" || path == "math/rand/v2" {
				out = append(out, Finding{
					Pos:        prog.Fset.Position(imp.Pos()),
					Rule:       "determinism",
					Message:    fmt.Sprintf("import of %s is forbidden: all randomness must flow through internal/simrand's named streams", path),
					Suggestion: "derive a stream with simrand.New(seed).Derive(name) instead of math/rand",
				})
			}
		}
		// Wall-clock reads.
		timeName := importLocalName(f, "time")
		if timeName != "" {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || id.Name != timeName {
					return true
				}
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					out = append(out, Finding{
						Pos:        prog.Fset.Position(call.Pos()),
						Rule:       "determinism",
						Message:    fmt.Sprintf("wall-clock read time.%s is forbidden in simulation/serving code: only internal/walltime may touch the clock", sel.Sel.Name),
						Suggestion: "time a metrics-only section with sw := walltime.Start(); ...; sw.Seconds()",
					})
				}
				return true
			})
		}
		// Order-sensitive map iteration.
		info := prog.Typed(pkg).Info
		for _, fn := range fileFuncs(f) {
			out = append(out, mapRangeFindings(prog, info, f, fn)...)
		}
	})
	return out
}

// mapRangeFindings flags range statements over map-typed expressions (by the
// checker's type for the ranged operand) whose body observes iteration order.
func mapRangeFindings(prog *Program, info *types.Info, f *File, fn funcInfo) []Finding {
	var out []Finding
	pkgNames := importedPkgNames(f)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapType(info.TypeOf(rs.X)) {
			return true
		}
		if sink := orderSensitiveSink(prog, info, f, fn, pkgNames, rs); sink != "" {
			out = append(out, Finding{
				Pos:        prog.Fset.Position(rs.Pos()),
				Rule:       "determinism",
				Message:    fmt.Sprintf("range over map %q feeds an order-sensitive sink (%s): map iteration order is randomized", exprString(rs.X), sink),
				Suggestion: "collect the keys, sort them, and iterate the sorted slice",
			})
		}
		return true
	})
	return out
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderSensitiveSink scans a map-range body for constructs that observe
// iteration order, returning a short description of the first sink found
// ("" when the body is order-insensitive).
func orderSensitiveSink(prog *Program, info *types.Info, f *File, fn funcInfo, pkgNames map[string]bool, rs *ast.RangeStmt) string {
	loopLocal := map[string]bool{}
	declaredIdents(rs, loopLocal)

	sink := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) onto an outer slice, unless x is sorted
			// later in the same function (sorted output is order-free).
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				if i >= len(v.Lhs) {
					continue
				}
				target := rootIdent(v.Lhs[i])
				if target == nil || loopLocal[target.Name] {
					continue
				}
				if !sortedAfter(fn, target.Name) {
					sink = fmt.Sprintf("append to outer slice %q without a subsequent sort", target.Name)
					return false
				}
			}
			// Compound accumulation (x += v): float accumulation is
			// order-sensitive in the low bits; integer counters should use
			// x++ which is exempt.
			if v.Tok == token.ADD_ASSIGN || v.Tok == token.SUB_ASSIGN {
				target := rootIdent(v.Lhs[0])
				if target != nil && !loopLocal[target.Name] && !isIntLiteral(v.Rhs[0]) {
					sink = fmt.Sprintf("accumulation into outer %q (float sums depend on order; use x++ for counts)", target.Name)
					return false
				}
			}
		case *ast.CallExpr:
			switch fun := v.Fun.(type) {
			case *ast.SelectorExpr:
				root := rootIdent(fun.X)
				if root == nil {
					return true
				}
				if pkgNames[root.Name] {
					// Package calls are assumed pure, except printing.
					if root.Name == importLocalName(f, "fmt") && isPrintName(fun.Sel.Name) {
						sink = fmt.Sprintf("fmt.%s output inside map iteration", fun.Sel.Name)
						return false
					}
					return true
				}
				if !loopLocal[root.Name] {
					sink = fmt.Sprintf("call %s.%s on shared state declared outside the loop", exprString(fun.X), fun.Sel.Name)
					return false
				}
			case *ast.Ident:
				// Calls to program-defined functions passing outer state.
				callee, ok := info.Uses[fun].(*types.Func)
				if !ok || callee.Pkg() == nil || !prog.ownsImportPath(callee.Pkg().Path()) {
					return true
				}
				for _, arg := range v.Args {
					root := rootIdent(arg)
					if root != nil && !loopLocal[root.Name] && !pkgNames[root.Name] {
						sink = fmt.Sprintf("call %s(...) passing shared state %q", fun.Name, root.Name)
						return false
					}
				}
			}
		}
		return true
	})
	return sink
}

// sortedAfter reports whether fn's body contains a sort call that receives
// name as an argument (sort.Ints(name), sort.Slice(name, ...), ...).
func sortedAfter(fn funcInfo, name string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && root.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

func isIntLiteral(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT
}

func isPrintName(name string) bool {
	switch name {
	case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
		return true
	}
	return false
}

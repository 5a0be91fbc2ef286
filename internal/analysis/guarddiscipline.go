package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// GuardDiscipline enforces the guarded-serving contract: outside
// internal/guard and internal/predictor themselves, nothing calls the
// predictor's SelectPlan / SelectPlanKeyed directly. Every serving-path score
// must flow through guard.Guard — Serve for guarded serving, or
// ScoreLearned where raw model failures must surface (validation) — so the
// deadline check, circuit breaker and regression sentinel cannot be
// bypassed by a new call site. Test files are exempt (eachSourceFile skips
// them): tests and benchmarks probe the raw model on purpose.
//
// The same analyzer polices the model lifecycle seam: Guard.SwapScorer
// replaces the serving model mid-flight, and calling it anywhere but the
// lifecycle manager (a file named lifecycle.go) desynchronizes the guard's
// scorer from the deployment's predictor pointer — the swap must pair both
// writes, reset the sentinel, and account the quarantine release.
//
// The analyzer also flags method *values*: `f := p.SelectPlanKeyed` smuggles
// the raw entry point past the call-site scan and hands it to code that may
// invoke it anywhere.
func GuardDiscipline() *Analyzer {
	return &Analyzer{
		Name: "guarddiscipline",
		Doc:  "predictor plan scoring outside internal/guard flows through guard.Guard",
		Run:  runGuardDiscipline,
	}
}

// guardExemptSuffixes are the package-path tails allowed to touch the raw
// scoring entry points: the guard (it owns the call) and the predictor (it
// implements it). Suffix matching keeps fixture programs, which load under
// their own module path, subject to the same rule.
var guardExemptSuffixes = []string{"/internal/guard", "/internal/predictor"}

func runGuardDiscipline(prog *Program) []Finding {
	var out []Finding
	prog.eachSourceFile(func(pkg *Package, f *File) {
		if strings.HasSuffix(pkg.ImportPath, "/internal/fleet") {
			out = append(out, guardFleetAdmission(prog, f)...)
		}
		if guardExempt(pkg.ImportPath) {
			return
		}
		// Selector expressions in call position, so the method-value pass
		// below doesn't double-report every direct call.
		callFuns := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					callFuns[sel] = true
				}
			}
			return true
		})
		out = append(out, guardMethodValues(prog, pkg, f, callFuns)...)
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch name {
			case "SelectPlan", "SelectPlanKeyed":
				out = append(out, Finding{
					Pos:  prog.Fset.Position(call.Pos()),
					Rule: "guarddiscipline",
					Message: fmt.Sprintf("%s.%s bypasses the serving guard: deadline, circuit breaker and quarantine do not apply here",
						exprString(sel.X), name),
					Suggestion: "route through guard.Guard — Serve for guarded serving, ScoreLearned where raw model errors must surface",
				})
			case "SwapScorer":
				if path.Base(f.Path) == "lifecycle.go" {
					return true
				}
				out = append(out, Finding{
					Pos:  prog.Fset.Position(call.Pos()),
					Rule: "guarddiscipline",
					Message: fmt.Sprintf("%s.SwapScorer outside the lifecycle seam: the guard scorer and the deployment's predictor pointer must swap together",
						exprString(sel.X)),
					Suggestion: "swap models through the lifecycle manager (lifecycle.go promote/rollback), which pairs the predictor store with the scorer swap",
				})
			}
			return true
		})
	})
	return out
}

// fleetGateFunc is the one function inside internal/fleet sanctioned to reach
// a backend's full serving ladder: the registry's exit from the admission
// gate.
const fleetGateFunc = "serveAdmitted"

// guardFleetAdmission enforces the fleet admission gate: inside
// internal/fleet, a backend's OptimizeCtx (or a no-context Optimize) is
// reachable only from Registry.serveAdmitted. Any other call site — or a
// method value that could smuggle the entry point out — bypasses the token
// buckets, priority lanes and shed accounting entirely. Purely syntactic: the
// rule is scoped to one package where every selector by that name IS the
// serving ladder, so no type resolution is needed and fixture packages load
// under the same discipline.
func guardFleetAdmission(prog *Program, f *File) []Finding {
	var out []Finding
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		inGate := fd.Name.Name == fleetGateFunc
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "OptimizeCtx" && name != "Optimize" {
				return true
			}
			if inGate && name == "OptimizeCtx" {
				return true
			}
			out = append(out, Finding{
				Pos:  prog.Fset.Position(sel.Pos()),
				Rule: "guarddiscipline",
				Message: fmt.Sprintf("%s.%s inside internal/fleet bypasses the admission gate: token buckets, priority lanes and shed accounting do not apply here",
					exprString(sel.X), name),
				Suggestion: "route backend serving through Registry.serveAdmitted, the one sanctioned exit from the admission gate",
			})
			return true
		})
	}
	return out
}

// guardExempt reports whether a package owns the raw scoring entry points.
func guardExempt(importPath string) bool {
	for _, s := range guardExemptSuffixes {
		if strings.HasSuffix(importPath, s) {
			return true
		}
	}
	return false
}

// guardMethodValues flags references to the raw scoring entry points taken
// as method values (not in call position); the checker tells a method value
// from an unrelated field access.
func guardMethodValues(prog *Program, pkg *Package, f *File, callFuns map[*ast.SelectorExpr]bool) []Finding {
	info := prog.Typed(pkg).Info
	var out []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || callFuns[sel] {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || recvNamed(fn) == nil {
			return true
		}
		switch fn.Name() {
		case "SelectPlan", "SelectPlanKeyed":
			out = append(out, Finding{
				Pos:  prog.Fset.Position(sel.Pos()),
				Rule: "guarddiscipline",
				Message: fmt.Sprintf("method value %s.%s smuggles the raw scoring entry point past the serving guard",
					exprString(sel.X), fn.Name()),
				Suggestion: "pass the guard (or a closure over guard.Serve/ScoreLearned) instead of the raw method",
			})
		case "SwapScorer":
			if path.Base(f.Path) == "lifecycle.go" {
				return true
			}
			out = append(out, Finding{
				Pos:  prog.Fset.Position(sel.Pos()),
				Rule: "guarddiscipline",
				Message: fmt.Sprintf("method value %s.SwapScorer escapes the lifecycle seam: the swap must stay paired with the predictor store",
					exprString(sel.X)),
				Suggestion: "keep SwapScorer invocations inside lifecycle.go's promote/rollback",
			})
		}
		return true
	})
	return out
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NaNSafety enforces the NaN-safe plan-selection contract: the predictor can
// emit NaN estimates (untrained edge cases, degenerate normalization), and a
// raw `<` / `>` between cost or estimate values silently makes the NaN
// operand win or lose (every comparison with NaN is false). The vetted
// argmin in the selector guards with math.IsNaN before comparing; everything
// else must route cost comparisons through internal/floatsafe.
//
// Flagged:
//   - binary < <= > >= where at least one operand is cost-like (its name
//     mentions cost/estimate) and neither side is a plain literal (threshold
//     checks against constants are fail-closed and exempt);
//   - math.Min / math.Max calls with a cost-like argument (NaN propagation
//     differs between the two and from a raw compare).
//
// Suppressed when the enclosing function guards one of the compared
// expressions with math.IsNaN — that is precisely the vetted-argmin shape.
//
// The checker refines the name heuristic twice: operands
// the checker proves non-float are skipped (an integer "costCount" cannot be
// NaN), and typed constants count as literals (a comparison against a named
// threshold like maxCost fails closed exactly like a literal one).
func NaNSafety() *Analyzer {
	return &Analyzer{
		Name: "nansafety",
		Doc:  "no raw float comparisons on cost/estimate values outside NaN-guarded argmins",
		Run:  runNaNSafety,
	}
}

func runNaNSafety(prog *Program) []Finding {
	var out []Finding
	prog.eachSourceFile(func(pkg *Package, f *File) {
		info := prog.Typed(pkg).Info
		for _, fn := range fileFuncs(f) {
			guardedExprs := isNaNGuards(f, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.BinaryExpr:
					if !isCompare(v.Op) {
						return true
					}
					if isLiteralish(v.X) || isLiteralish(v.Y) ||
						typedConst(info, v.X) || typedConst(info, v.Y) {
						return true
					}
					if !costLike(v.X) && !costLike(v.Y) {
						return true
					}
					if provedNonFloat(info, v.X) && provedNonFloat(info, v.Y) {
						return true
					}
					if guardedExprs[exprString(v.X)] || guardedExprs[exprString(v.Y)] {
						return true
					}
					out = append(out, Finding{
						Pos:  prog.Fset.Position(v.Pos()),
						Rule: "nansafety",
						Message: fmt.Sprintf("raw %s comparison on cost/estimate value %q: a NaN operand silently wins or loses the choice",
							v.Op, exprString(cheaperOperand(v))),
						Suggestion: "use floatsafe.Less/LessEq/SortLess/ArgMin, or guard both operands with math.IsNaN",
					})
				case *ast.CallExpr:
					sel, ok := v.Fun.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "Min" && sel.Sel.Name != "Max") {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); !ok || id.Name != importLocalName(f, "math") {
						return true
					}
					for _, arg := range v.Args {
						if costLike(arg) && !isLiteralish(arg) && !typedConst(info, arg) {
							out = append(out, Finding{
								Pos:  prog.Fset.Position(v.Pos()),
								Rule: "nansafety",
								Message: fmt.Sprintf("math.%s on cost/estimate value %q propagates NaN asymmetrically",
									sel.Sel.Name, exprString(arg)),
								Suggestion: "use floatsafe helpers or an explicit math.IsNaN guard",
							})
							break
						}
					}
				}
				return true
			})
		}
	})
	return out
}

// isNaNGuards collects the rendered expressions the function passes to
// math.IsNaN — comparisons touching those are considered vetted.
func isNaNGuards(f *File, fn funcInfo) map[string]bool {
	out := map[string]bool{}
	mathName := importLocalName(f, "math")
	if mathName == "" {
		return out
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "IsNaN" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == mathName {
			out[exprString(call.Args[0])] = true
		}
		return true
	})
	return out
}

// costLike reports whether an expression's name marks it as a cost or
// estimate value: the identifier (or final selector/index component)
// mentions "cost" or "estim", or is prefixed "est" (estRows, estSize).
func costLike(e ast.Expr) bool {
	name := ""
	switch v := e.(type) {
	case *ast.Ident:
		name = v.Name
	case *ast.SelectorExpr:
		name = v.Sel.Name
	case *ast.IndexExpr:
		return costLike(v.X)
	case *ast.CallExpr:
		return costLike(v.Fun)
	case *ast.ParenExpr:
		return costLike(v.X)
	case *ast.BinaryExpr:
		return costLike(v.X) || costLike(v.Y)
	case *ast.UnaryExpr:
		return costLike(v.X)
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "cost") || strings.Contains(lower, "estim") ||
		(strings.HasPrefix(lower, "est") && len(lower) > 3)
}

// cheaperOperand returns the cost-like side of a comparison for the message.
func cheaperOperand(v *ast.BinaryExpr) ast.Expr {
	if costLike(v.X) {
		return v.X
	}
	return v.Y
}

func isCompare(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// typedConst reports whether the checker evaluated e to a constant — named
// thresholds (maxCost) fail closed under NaN just like literal ones.
func typedConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// provedNonFloat reports whether the checker proves e is not float-typed —
// integer or string operands cannot hold a NaN, whatever their name says.
func provedNonFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex|types.IsUntyped) == 0
}

// isLiteralish reports pure-constant operands (0, 1e9, -1): comparisons
// against constants are threshold checks that fail closed under NaN.
func isLiteralish(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.UnaryExpr:
		return isLiteralish(v.X)
	case *ast.ParenExpr:
		return isLiteralish(v.X)
	}
	return false
}

package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// ErrWrap enforces the error-wrapping contract on the serving path:
//
//   - fmt.Errorf that embeds an error must use %w, so errors.Is/errors.As
//     see through the wrap (predictor.ErrNoCandidates and friends are
//     matched by callers);
//   - a caller must not re-apply a prefix the callee already applied — the
//     DeployAll double-wrap bug class from PR 1, where "deploy p1: deploy
//     p1: ..." stuttered because both layers prefixed the project name.
func ErrWrap() *Analyzer {
	return &Analyzer{
		Name: "errwrap",
		Doc:  "errors wrap with %w and are never double-prefixed",
		Run:  runErrWrap,
	}
}

func runErrWrap(prog *Program) []Finding {
	// Function/method name → the prefix tokens its own fmt.Errorf wraps apply.
	wrapPrefixes := map[string][]string{}
	prog.eachFile(func(_ *Package, f *File) {
		for _, fn := range fileFuncs(f) {
			name := fn.Decl.Name.Name
			wrapPrefixes[name] = append(wrapPrefixes[name], errorfPrefixes(f, fn.Body)...)
		}
	})

	var out []Finding
	prog.eachSourceFile(func(pkg *Package, f *File) {
		for _, fn := range fileFuncs(f) {
			// errName → simple name of the callee it was last assigned from.
			lastCallee := map[string]string{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.AssignStmt:
					recordErrAssign(v, lastCallee)
				case *ast.CallExpr:
					if !isPkgCall(f, v, "fmt", "Errorf") || len(v.Args) < 2 {
						return true
					}
					format, ok := stringLit(v.Args[0])
					if !ok {
						return true
					}
					wrapped := errorArg(v.Args[1:])
					if wrapped == "" {
						return true
					}
					if !strings.Contains(format, "%w") {
						out = append(out, Finding{
							Pos:  prog.Fset.Position(v.Pos()),
							Rule: "errwrap",
							Message: fmt.Sprintf("fmt.Errorf embeds error %q without %%w: errors.Is/errors.As cannot see through the wrap",
								wrapped),
							Suggestion: "change the verb for the error operand to %w",
						})
						return true
					}
					// Double-prefix: the callee that produced this error
					// already applies the same leading prefix token.
					tok := wrapPrefixToken(v)
					callee := lastCallee[wrapped]
					if tok == "" || callee == "" {
						return true
					}
					for _, p := range wrapPrefixes[callee] {
						if p == tok {
							out = append(out, Finding{
								Pos:  prog.Fset.Position(v.Pos()),
								Rule: "errwrap",
								Message: fmt.Sprintf("re-prefixes %q on an error %s already prefixes — the DeployAll double-wrap bug class",
									tok, callee),
								Suggestion: "drop the duplicate prefix; the callee's wrap already carries it",
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

// recordErrAssign tracks `x, err := callee(...)` / `err = callee(...)` so a
// later wrap of err can be matched against callee's own prefixes.
func recordErrAssign(v *ast.AssignStmt, lastCallee map[string]string) {
	if len(v.Rhs) != 1 {
		return
	}
	call, ok := v.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	callee := ""
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee = fun.Name
	case *ast.SelectorExpr:
		callee = fun.Sel.Name
	}
	if callee == "" {
		return
	}
	for _, lhs := range v.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && errorLikeName(id.Name) {
			lastCallee[id.Name] = callee
		}
	}
}

// errorArg returns the rendered first error-like argument ("" if none).
func errorArg(args []ast.Expr) string {
	for _, a := range args {
		switch v := a.(type) {
		case *ast.Ident:
			if errorLikeName(v.Name) {
				return v.Name
			}
		case *ast.SelectorExpr:
			if errorLikeName(v.Sel.Name) {
				return exprString(v)
			}
		}
	}
	return ""
}

func errorLikeName(name string) bool {
	return name == "err" || strings.HasSuffix(name, "Err") || strings.HasSuffix(name, "err") ||
		strings.HasPrefix(name, "err")
}

// errorfPrefixes collects the wrap-prefix tokens of every
// fmt.Errorf("prefix ...: ...") call in body.
func errorfPrefixes(f *File, body *ast.BlockStmt) []string {
	var out []string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPkgCall(f, call, "fmt", "Errorf") {
			return true
		}
		if tok := wrapPrefixToken(call); tok != "" {
			out = append(out, tok)
		}
		return true
	})
	return out
}

// wrapPrefixToken extracts the leading prefix token of an Errorf format
// literal: for `fmt.Errorf("deploy %s: %w", name, err)` it returns "deploy".
// It returns "" when there is no stable textual prefix.
func wrapPrefixToken(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	format, ok := stringLit(call.Args[0])
	if !ok {
		return ""
	}
	head, _, found := strings.Cut(format, ":")
	if !found {
		return ""
	}
	fields := strings.Fields(head)
	if len(fields) == 0 || strings.Contains(fields[0], "%") {
		return ""
	}
	return fields[0]
}

package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// exprString renders an expression compactly for matching and messages. It
// covers the shapes the analyzers compare (idents, selectors, indexes,
// calls); anything else prints as "?".
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "()"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.UnaryExpr:
		return v.Op.String() + exprString(v.X)
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.BasicLit:
		return v.Value
	case *ast.BinaryExpr:
		return exprString(v.X) + v.Op.String() + exprString(v.Y)
	}
	return "?"
}

// rootIdent returns the leftmost identifier of an expression chain
// (a.b.c[i] → a), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	switch v := e.(type) {
	case *ast.Ident:
		return v
	case *ast.SelectorExpr:
		return rootIdent(v.X)
	case *ast.IndexExpr:
		return rootIdent(v.X)
	case *ast.CallExpr:
		return rootIdent(v.Fun)
	case *ast.StarExpr:
		return rootIdent(v.X)
	case *ast.UnaryExpr:
		return rootIdent(v.X)
	case *ast.ParenExpr:
		return rootIdent(v.X)
	}
	return nil
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// importLocalName returns the file-local name an import path is bound to
// ("" if not imported): "time" → "time", or the rename if aliased.
func importLocalName(f *File, path string) string {
	for _, imp := range f.AST.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// importedPkgNames returns the set of local names bound to imports in f.
func importedPkgNames(f *File) map[string]bool {
	out := map[string]bool{}
	for _, imp := range f.AST.Imports {
		if imp.Name != nil {
			if imp.Name.Name != "_" && imp.Name.Name != "." {
				out[imp.Name.Name] = true
			}
			continue
		}
		p, _ := strconv.Unquote(imp.Path.Value)
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		out[p] = true
	}
	return out
}

// isPkgCall reports whether call is `pkgLocal.fn(...)` where pkgLocal is the
// file's local name for the import path pkg.
func isPkgCall(f *File, call *ast.CallExpr, pkgPath, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return id.Name == importLocalName(f, pkgPath)
}

// enclosingFuncs returns every function body in a file paired with its
// declaration (top-level funcs and methods; function literals are visited as
// part of their enclosing declaration's body).
type funcInfo struct {
	Decl *ast.FuncDecl
	Body *ast.BlockStmt
}

func fileFuncs(f *File) []funcInfo {
	var out []funcInfo
	for _, decl := range f.AST.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, funcInfo{Decl: fd, Body: fd.Body})
		}
	}
	return out
}

// declaredIdents collects identifiers bound by := / var / range / func
// params inside node (used to distinguish loop-local state).
func declaredIdents(node ast.Node, into map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				for _, lhs := range v.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						into[id.Name] = true
					}
				}
			}
		case *ast.GenDecl:
			if v.Tok == token.VAR {
				for _, spec := range v.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							into[id.Name] = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{v.Key, v.Value} {
				if id, ok := e.(*ast.Ident); ok && e != nil {
					into[id.Name] = true
				}
			}
		case *ast.FuncLit:
			for _, fld := range v.Type.Params.List {
				for _, id := range fld.Names {
					into[id.Name] = true
				}
			}
		}
		return true
	})
}

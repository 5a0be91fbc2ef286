package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AllocDiscipline turns the serving fast path's zero-allocation contract
// (DESIGN.md "Inference fast path", enforced at runtime by the AllocsPerRun
// tests) into a compile-time gate: every function reachable from the serving
// roots — PredictCost, SelectPlanKeyed, ForwardInfer, the flat encoders, and
// plan.Fingerprint — must be free of allocating constructs:
//
//   - make / new builtins
//   - slice and map composite literals, and address-of composite literals
//     (&T{...} escapes to the heap)
//   - append that grows something other than the destination itself
//     (x = append(x, ...) and x = append(x[:0], ...) are the sanctioned
//     scratch idioms and stay exempt)
//   - string concatenation
//   - interface conversions of non-pointer values at call boundaries
//     (boxing a float or struct allocates)
//   - function literals that capture enclosing variables (closure allocation)
//
// Reachability comes from the typed call graph (callgraph.go), which
// over-approximates through interfaces and stored function values — the safe
// direction: a spurious finding is reviewed once and allowlisted with a
// Reason; a missed one silently re-introduces per-query garbage ahead of the
// ROADMAP item 3 quantization/SIMD churn.
//
// Functions named init are exempt (one-time setup is allowed to allocate),
// as are test files (never loaded into the graph).
func AllocDiscipline() *Analyzer {
	return AllocDisciplineWithRoots(DefaultAllocRoots)
}

// DefaultAllocRoots are the serving fast-path entry points, as
// "pkgsuffix.Name" specs (suffix-matched so fixture modules are subject to
// the same contract). Overridable from the CLI via -roots.
var DefaultAllocRoots = []string{
	"internal/predictor.PredictCost",
	"internal/predictor.SelectPlanKeyed",
	"internal/nn.ForwardInfer",
	"internal/encoding.EncodeTreeFlatInto",
	"internal/encoding.EncodeGraphFlatInto",
	"internal/encoding.EncodeSequenceFlatInto",
	"internal/plan.Fingerprint",
}

// AllocDisciplineWithRoots builds the analyzer over a custom root set.
func AllocDisciplineWithRoots(rootSpecs []string) *Analyzer {
	return &Analyzer{
		Name: "allocdiscipline",
		Doc:  "functions reachable from serving fast-path roots contain no allocating constructs",
		Run: func(prog *Program) []Finding {
			return runAllocDiscipline(prog, rootSpecs)
		},
	}
}

func runAllocDiscipline(prog *Program, rootSpecs []string) []Finding {
	var specs []RootSpec
	for _, s := range rootSpecs {
		if r, ok := ParseRootSpec(s); ok {
			specs = append(specs, r)
		}
	}
	cg := prog.BuildCallGraph()
	roots := cg.Roots(specs)
	if len(roots) == 0 {
		return nil
	}
	reach, parent := cg.ReachableFrom(roots)

	var out []Finding
	seen := map[string]bool{}
	for _, node := range cg.Nodes {
		if !reach[node] || node.Name() == "init" {
			continue
		}
		root := rootOf(node, parent)
		for _, f := range allocSites(prog, node) {
			f.Message = fmt.Sprintf("%s in %s (serving fast path via %s)", f.Message, node.Name(), root.ID())
			key := fmt.Sprintf("%s:%d:%d:%s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message)
			if !seen[key] {
				seen[key] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// allocSites scans one function body for allocating constructs. Findings
// carry the construct description only; the caller adds function and root.
func allocSites(prog *Program, node *FuncNode) []Finding {
	ti := prog.Typed(node.Pkg)
	var info *types.Info
	if ti != nil {
		info = ti.Info
	}
	s := &allocScan{prog: prog, node: node, info: info}
	s.block(node.Decl.Body)
	return s.out
}

type allocScan struct {
	prog *Program
	node *FuncNode
	info *types.Info
	out  []Finding
}

func (s *allocScan) report(pos token.Pos, desc, hint string) {
	s.out = append(s.out, Finding{
		Pos:        s.prog.Fset.Position(pos),
		Rule:       "allocdiscipline",
		Message:    desc,
		Suggestion: hint,
	})
}

// block walks the whole body in two passes: the first maps calls sitting in
// direct right-hand-side position to their assignment (the self-append
// exemption needs it), the second classifies every construct in source
// order. Nested composite literals report once, at the outermost literal.
func (s *allocScan) block(body *ast.BlockStmt) {
	direct := map[*ast.CallExpr]*ast.AssignStmt{}
	ast.Inspect(body, func(n ast.Node) bool {
		if a, ok := n.(*ast.AssignStmt); ok {
			for _, rhs := range a.Rhs {
				if c, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					direct[c] = a
				}
			}
		}
		return true
	})
	handled := map[*ast.CompositeLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			s.call(v, direct[v])
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if lit, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok && !handled[lit] {
					handled[lit] = true
					markNested(lit, handled)
					s.compositeLit(lit, true)
				}
			}
		case *ast.CompositeLit:
			if !handled[v] {
				handled[v] = true
				markNested(v, handled)
				s.compositeLit(v, false)
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD && s.isStringConcat(v) {
				s.report(v.OpPos, "string concatenation allocates",
					"serving code formats into pre-sized scratch or avoids string building entirely")
			}
		case *ast.FuncLit:
			s.funcLit(v)
		}
		return true
	})
}

// markNested records the composite literals directly nested in lit so the
// walk reports one allocation per outermost literal, not one per element.
func markNested(lit *ast.CompositeLit, handled map[*ast.CompositeLit]bool) {
	ast.Inspect(lit, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CompositeLit); ok && inner != lit {
			handled[inner] = true
		}
		return true
	})
}

// call classifies one call expression.
func (s *allocScan) call(call *ast.CallExpr, assign *ast.AssignStmt) {
	name := ""
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		name = id.Name
		if s.info != nil {
			if _, isBuiltin := s.info.Uses[id].(*types.Builtin); !isBuiltin {
				name = "" // shadowed; not the builtin
			}
		}
	}
	switch name {
	case "make":
		s.report(call.Pos(), "make allocates", "pre-size scratch buffers at construction time (see nn.Scratch)")
	case "new":
		s.report(call.Pos(), "new allocates", "reuse pooled or pre-constructed values on the serving path")
	case "append":
		if len(call.Args) > 0 && !selfAppend(call, assign) {
			s.report(call.Pos(), fmt.Sprintf("append to %q may grow beyond scratch", exprString(call.Args[0])),
				"append only back into the destination (x = append(x, ...) or x = append(x[:0], ...))")
		}
	}
	s.interfaceArgs(call)
}

// selfAppend reports the sanctioned scratch idioms: the append destination is
// exactly the assignment target, optionally re-sliced to zero length
// (x = append(x, ...), x = append(x[:0], ...)).
func selfAppend(call *ast.CallExpr, assign *ast.AssignStmt) bool {
	if assign == nil || len(call.Args) == 0 {
		return false
	}
	dst := ast.Unparen(call.Args[0])
	if sl, ok := dst.(*ast.SliceExpr); ok && sl.Low == nil && sl.Max == nil {
		if lit, ok := sl.High.(*ast.BasicLit); ok && lit.Value == "0" {
			dst = sl.X
		} else if sl.High == nil {
			dst = sl.X
		}
	}
	want := exprString(dst)
	for _, lhs := range assign.Lhs {
		if exprString(lhs) == want {
			return true
		}
	}
	return false
}

// compositeLit flags slice and map literals, and any literal whose address
// is taken (addrOf); plain struct and array values live on the stack.
func (s *allocScan) compositeLit(lit *ast.CompositeLit, addrOf bool) {
	kind := ""
	if s.info != nil {
		if tv, ok := s.info.Types[lit]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				kind = "slice literal"
			case *types.Map:
				kind = "map literal"
			}
		}
	} else {
		switch t := lit.Type.(type) {
		case *ast.ArrayType:
			if t.Len == nil {
				kind = "slice literal"
			}
		case *ast.MapType:
			kind = "map literal"
		}
	}
	switch {
	case kind != "":
		s.report(lit.Pos(), kind+" allocates", "hoist the literal to package scope or into pre-built scratch")
	case addrOf:
		s.report(lit.Pos(), "address-of composite literal escapes to the heap",
			"reuse a pooled or caller-provided value instead of &T{...}")
	}
}

// funcLit flags literals that capture enclosing variables (typed check);
// without type info every literal is flagged, the conservative direction.
func (s *allocScan) funcLit(lit *ast.FuncLit) {
	captures := s.info == nil
	if s.info != nil {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || captures {
				return !captures
			}
			v, ok := s.info.Uses[id].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			// Captured: declared outside the literal but not at package scope.
			if (v.Pos() < lit.Pos() || v.Pos() > lit.End()) && !isPackageLevel(v) {
				captures = true
			}
			return true
		})
	}
	if captures {
		s.report(lit.Pos(), "function literal captures enclosing variables (closure allocates)",
			"hoist the function to a declaration or pass state explicitly")
	}
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// interfaceArgs flags arguments boxed into interface parameters when the
// concrete value is not already a pointer or interface — boxing allocates.
// Typed-only: without resolution we cannot see the callee's signature.
func (s *allocScan) interfaceArgs(call *ast.CallExpr) {
	if s.info == nil {
		return
	}
	sig := calleeSignature(s.info, call)
	if sig == nil || sig.Params() == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // pass-through slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type()
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := s.info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
			continue // constants are boxed from read-only data; nil is free
		}
		switch tv.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // already a single word, no boxing copy
		}
		s.report(arg.Pos(), fmt.Sprintf("interface conversion boxes %q", exprString(arg)),
			"keep the fast path monomorphic; pass concrete types or pointers")
	}
}

// calleeSignature resolves the called function's signature when the checker
// pinned one (direct calls, methods, func values — not builtins/conversions).
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isStringConcat reports whether the whole + expression is a non-constant
// string concatenation (typed check); without type info it falls back to
// "either operand is a string literal".
func (s *allocScan) isStringConcat(bin *ast.BinaryExpr) bool {
	if s.info != nil {
		tv, ok := s.info.Types[bin]
		if !ok || tv.Type == nil {
			return false
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0 && tv.Value == nil
	}
	_, xLit := stringLit(bin.X)
	_, yLit := stringLit(bin.Y)
	return xLit || yLit
}

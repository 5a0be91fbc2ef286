package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// InferencePurity enforces the serving-path purity contract behind the
// inference fast path (see DESIGN.md "Inference fast path & caching
// contract"): code that runs while serving queries must never construct
// gradient-tracked tensors (nn.Param) or invoke autograd backpropagation
// (.Backward()). Training is the only writer of model weights; a Param or
// Backward reachable from a serving entry point would silently re-attach the
// autograd graph, breaking both the zero-allocation guarantee and the
// bit-exactness argument that the inference kernels replicate frozen
// weights.
//
// Scope:
//   - internal/guard: the whole package. The guard wraps a trained model and
//     has no business touching autograd anywhere.
//   - internal/predictor: every function reachable from the serving roots
//     PredictCost, SelectPlan and SelectPlanKeyed through the typed call
//     graph (callgraph.go) — static calls, interface dispatch resolved via
//     types.Implements, method/function values, and a name fallback where
//     the checker has no answer. Before the typed
//     engine, reachability was per-package callee-name matching, which
//     missed calls through stored function values and cross-package
//     round-trips; the graph closes those false negatives and still
//     over-approximates — the safe direction for a purity rule. Training
//     entry points (Train and friends) stay free to use autograd.
//
// Test files are exempt as everywhere else in the suite.
func InferencePurity() *Analyzer {
	return &Analyzer{
		Name: "inferencepurity",
		Doc:  "serving paths never construct nn.Param tensors or call Backward",
		Run:  runInferencePurity,
	}
}

// inferenceRoots are the predictor's serving entry points; everything they
// reach is serving-path code.
var inferenceRoots = []string{"PredictCost", "SelectPlan", "SelectPlanKeyed"}

func runInferencePurity(prog *Program) []Finding {
	cg := prog.BuildCallGraph()
	var specs []RootSpec
	for _, name := range inferenceRoots {
		specs = append(specs, RootSpec{PkgSuffix: "internal/predictor", Name: name})
	}
	reach, _ := cg.ReachableFrom(cg.Roots(specs))

	var out []Finding
	for _, node := range cg.Nodes {
		switch {
		case strings.HasSuffix(node.Pkg.ImportPath, "/internal/guard"):
			// whole package in scope
		case strings.HasSuffix(node.Pkg.ImportPath, "/internal/predictor"):
			if !reach[node] {
				continue
			}
		default:
			continue
		}
		out = append(out, purityViolations(prog, node.File, funcInfo{Decl: node.Decl, Body: node.Decl.Body})...)
	}
	return out
}

// purityViolations flags nn.Param construction and .Backward() calls in one
// function body.
func purityViolations(prog *Program, f *File, fn funcInfo) []Finding {
	// Resolve the file-local name of the autograd package by import-path
	// suffix, so fixture modules stay subject to the rule.
	nnLocal := ""
	for _, imp := range f.AST.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if strings.HasSuffix(p, "/internal/nn") || p == "internal/nn" {
			nnLocal = importLocalName(f, p)
		}
	}
	var out []Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch {
		case sel.Sel.Name == "Param" && nnLocal != "":
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == nnLocal {
				out = append(out, Finding{
					Pos:  prog.Fset.Position(call.Pos()),
					Rule: "inferencepurity",
					Message: fmt.Sprintf("%s constructs a gradient-tracked tensor on the serving path (in %s)",
						exprString(sel), fn.Decl.Name.Name),
					Suggestion: "serving code reads frozen weights; build tensors with nn.Param only in training code",
				})
			}
		case sel.Sel.Name == "Backward":
			out = append(out, Finding{
				Pos:  prog.Fset.Position(call.Pos()),
				Rule: "inferencepurity",
				Message: fmt.Sprintf("%s.Backward runs backpropagation on the serving path (in %s)",
					exprString(sel.X), fn.Decl.Name.Name),
				Suggestion: "serving code uses the ForwardInfer fast path; Backward belongs to training only",
			})
		}
		return true
	})
	return out
}

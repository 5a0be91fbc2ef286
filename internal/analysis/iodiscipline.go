package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// IODiscipline enforces the durability contract from DESIGN.md ("Durability &
// recovery contract"): outside internal/atomicio itself, production code never
// writes files with the raw os primitives. os.WriteFile truncates in place —
// a crash mid-write leaves a torn file with no checksum to catch it;
// os.Create and os.Rename are the raw halves of the temp+fsync+rename dance
// that atomicio packages correctly (fsync the temp file AND the directory,
// then rename). Every durable artifact — model snapshots, manifests, journal
// segments, benchmark output — must flow through atomicio.FS so
// the kill-point sweep (TestKillPointSweepRecoversEveryWrite, `make
// chaos-recover`) actually exercises every write the system performs. Test files are exempt (eachSourceFile
// skips them): tests corrupt files on purpose.
//
// The analyzer also flags function *values*: `w := os.WriteFile` smuggles the
// raw primitive past the call-site scan and hands it to code that may invoke
// it anywhere.
func IODiscipline() *Analyzer {
	return &Analyzer{
		Name: "iodiscipline",
		Doc:  "raw file writes (os.WriteFile/Create/Rename) outside internal/atomicio flow through atomicio.FS",
		Run:  runIODiscipline,
	}
}

// ioExemptSuffix is the one package-path tail allowed to touch the raw write
// primitives: atomicio implements the sanctioned sequence. Suffix matching
// keeps fixture programs, which load under their own module path, subject to
// the same rule.
const ioExemptSuffix = "/internal/atomicio"

// rawWriteFuncs maps each confined os entry point to why it is dangerous
// outside atomicio.
var rawWriteFuncs = map[string]string{
	"WriteFile": "truncates in place — a crash mid-write leaves a torn file no checksum protects",
	"Create":    "opens an unsynced truncating handle — the write is not durable until fsync and rename",
	"Rename":    "publishes a file that was never fsynced — the rename can survive a crash the data did not",
}

func runIODiscipline(prog *Program) []Finding {
	var out []Finding
	prog.eachSourceFile(func(pkg *Package, f *File) {
		if strings.HasSuffix(pkg.ImportPath, ioExemptSuffix) {
			return
		}
		// Selector expressions in call position, so the function-value pass
		// below doesn't double-report every direct call.
		callFuns := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			callFuns[sel] = true
			name := sel.Sel.Name
			why, confined := rawWriteFuncs[name]
			if !confined || !isPkgCall(f, call, "os", name) {
				return true
			}
			out = append(out, Finding{
				Pos:        prog.Fset.Position(call.Pos()),
				Rule:       "iodiscipline",
				Message:    fmt.Sprintf("os.%s outside internal/atomicio %s", name, why),
				Suggestion: "route the write through atomicio.FS (WriteFile/Append) — the one sanctioned temp+fsync+rename primitive",
			})
			return true
		})
		out = append(out, ioFunctionValues(prog, pkg, f, callFuns)...)
	})
	return out
}

// ioFunctionValues flags references to the raw write primitives taken as
// function values (not in call position); resolution through types.Func pins
// the selector to package os even under an import alias.
func ioFunctionValues(prog *Program, pkg *Package, f *File, callFuns map[*ast.SelectorExpr]bool) []Finding {
	info := prog.Typed(pkg).Info
	var out []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || callFuns[sel] {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return true
		}
		if _, confined := rawWriteFuncs[fn.Name()]; !confined {
			return true
		}
		out = append(out, Finding{
			Pos:        prog.Fset.Position(sel.Pos()),
			Rule:       "iodiscipline",
			Message:    fmt.Sprintf("function value os.%s smuggles the raw write primitive past the atomicio seam", fn.Name()),
			Suggestion: "pass an atomicio.FS (or a closure over its WriteFile/Append) instead of the raw os function",
		})
		return true
	})
	return out
}

// Package analysis is a zero-dependency static-analysis framework for this
// repository, built on the standard library's go/parser, go/ast and go/types.
// It parses and type-checks every package under the module root and runs a
// pluggable set of analyzers over the result. Each analyzer owns a code
// contract that no test, race run or compiler check would otherwise catch
// (DESIGN.md "Static analysis & code contracts" holds the mutation table that
// decided the set):
//
//   - determinism: seed-reproducibility (no math/rand outside
//     internal/simrand, no wall-clock reads outside internal/walltime, no
//     order-sensitive iteration over maps)
//   - nansafety: no raw float comparisons on cost/estimate values where a
//     NaN operand would silently win or lose a plan choice
//   - errwrap: errors are wrapped with %w and never double-prefixed
//   - guarddiscipline: predictor plan scoring outside internal/guard and
//     internal/predictor flows through the serving guard (guard.Guard), model
//     swaps stay in the lifecycle seam, and internal/fleet reaches a backend's
//     full ladder only through the admission gate
//   - lockorder: the lock-acquisition graph is acyclic and no hook or
//     callback is invoked while a lock is held
//   - ctxflow: library code mints no root context and threads the one it
//     receives to every context-aware callee
//   - iodiscipline: raw file writes (os.WriteFile/Create/Rename) outside
//     internal/atomicio flow through atomicio.FS, so every durable artifact
//     gets the atomic temp+fsync+rename treatment the crash-recovery
//     contract assumes
//
// Findings are reported as "file:line: [rule] message". Intentional
// exceptions live in the commented allowlist (see allowlist.go), never in
// analyzer logic. The suite runs as cmd/loam-vet from `make lint`.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
	// Suggestion is an optional rewrite hint, printed by loam-vet -hints.
	Suggestion string
}

// String formats the finding in the canonical "file:line: [rule] message"
// shape that editors and CI logs pick up.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Analyzer is one pluggable rule set run over the whole loaded program.
// Whole-program (rather than per-package) granularity lets analyzers build
// cross-package indexes, e.g. errwrap's callee-prefix map.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		NaNSafety(),
		ErrWrap(),
		GuardDiscipline(),
		LockOrder(),
		CtxFlow(),
		IODiscipline(),
	}
}

// Report is the full result of one suite run: the findings the allowlist did
// not absorb, and the allowlist entries that matched nothing — stale
// suppressions are bugs waiting to hide the next real finding, so loam-vet
// fails on them.
type Report struct {
	Findings []Finding
	Stale    []AllowEntry
}

// Run executes the analyzers, filters through the allowlist, and tracks
// which entries fired. Findings come back sorted.
func Run(prog *Program, analyzers []*Analyzer, allow []AllowEntry) Report {
	var rep Report
	matched := make([]bool, len(allow))
	for _, a := range analyzers {
		for _, f := range a.Run(prog) {
			if i, ok := AllowedBy(allow, f); ok {
				matched[i] = true
			} else {
				rep.Findings = append(rep.Findings, f)
			}
		}
	}
	for i, e := range allow {
		if !matched[i] {
			rep.Stale = append(rep.Stale, e)
		}
	}
	SortFindings(rep.Findings)
	return rep
}

// RunAll runs the given analyzers and filters the findings through the
// allowlist, returning the surviving findings sorted by position.
func RunAll(prog *Program, analyzers []*Analyzer, allow []AllowEntry) []Finding {
	return Run(prog, analyzers, allow).Findings
}

// SortFindings orders findings by file, line, then rule, so output is stable
// across runs and map-free.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Pos.Filename != fs[j].Pos.Filename {
			return fs[i].Pos.Filename < fs[j].Pos.Filename
		}
		if fs[i].Pos.Line != fs[j].Pos.Line {
			return fs[i].Pos.Line < fs[j].Pos.Line
		}
		return fs[i].Rule < fs[j].Rule
	})
}

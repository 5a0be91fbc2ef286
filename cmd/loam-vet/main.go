// Command loam-vet runs the repo's custom static-analysis suite
// (internal/analysis): determinism, nansafety, errwrap, guarddiscipline,
// lockorder, ctxflow and iodiscipline.
// It loads every package under the module root with stdlib go/parser and
// type-checks it with go/types — no build system, no dependencies — and
// exits 1 on any finding not covered by the commented allowlist, or on any
// allowlist entry that no longer matches a finding (stale suppressions are
// bugs waiting to hide the next real finding; each is printed). A tree that
// does not parse or type-check, a bad flag or an unknown -rules name exits 2.
//
// Usage:
//
//	loam-vet [-hints] [-rules determinism,errwrap] [-list] [./... | dir]
//
// With a directory argument the module root is resolved by walking up to
// go.mod from there; the default "./..." resolves from the working
// directory. -hints appends a suggested rewrite to each finding (the
// `make lint-fix-hints` mode).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"loam/internal/analysis"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(out, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("loam-vet", flag.ContinueOnError)
	fs.SetOutput(errw)
	hints := fs.Bool("hints", false, "print a suggested rewrite under each finding")
	rules := fs.String("rules", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rules != "" {
		want := map[string]bool{}
		for _, r := range strings.Split(*rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var sel []*analysis.Analyzer
		var valid []string
		for _, a := range analyzers {
			valid = append(valid, a.Name)
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		// Whatever is left names no analyzer: running the rest would check
		// less than the caller asked for and still exit 0.
		if len(want) > 0 {
			var unknown []string
			for r := range want {
				unknown = append(unknown, strconv.Quote(r))
			}
			sort.Strings(unknown)
			fmt.Fprintf(errw, "loam-vet: unknown analyzer %s in -rules (valid: %s)\n",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
			return 2
		}
		analyzers = sel
	}

	target := "./..."
	if fs.NArg() > 0 {
		target = fs.Arg(0)
	}
	start := target
	if start == "./..." || start == "." {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintf(errw, "loam-vet: %v\n", err)
			return 2
		}
		start = wd
	}
	root, err := findModuleRoot(start)
	if err != nil {
		fmt.Fprintf(errw, "loam-vet: %v\n", err)
		return 2
	}

	prog, err := analysis.LoadProgram(root)
	if err != nil {
		fmt.Fprintf(errw, "loam-vet: %v\n", err)
		return 2
	}
	rep := analysis.Run(prog, analyzers, analysis.DefaultAllowlist())
	// Stale tracking is only meaningful against the full suite: a -rules
	// subset never fires the other analyzers' entries.
	if *rules != "" {
		rep.Stale = nil
	}

	for _, f := range rep.Findings {
		fmt.Fprintln(out, f.String())
		if *hints && f.Suggestion != "" {
			fmt.Fprintf(out, "\thint: %s\n", f.Suggestion)
		}
	}
	for _, e := range rep.Stale {
		fmt.Fprintf(out, "stale allowlist entry: rule=%s path=%s contains=%q — remove it (reason was: %s)\n",
			e.Rule, e.PathPrefix, e.Contains, e.Reason)
	}

	exit := 0
	if len(rep.Findings) > 0 {
		fmt.Fprintf(out, "loam-vet: %d finding(s)\n", len(rep.Findings))
		exit = 1
	}
	if len(rep.Stale) > 0 {
		fmt.Fprintf(out, "loam-vet: %d stale allowlist entr%s\n", len(rep.Stale), plural(len(rep.Stale), "y", "ies"))
		exit = 1
	}
	return exit
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// findModuleRoot walks up from dir to the first directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

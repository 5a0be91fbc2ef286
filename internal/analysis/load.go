package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is one parsed source file.
type File struct {
	// Path is the module-relative slash path, also used as the token.FileSet
	// name so findings report repo-relative positions.
	Path string
	AST  *ast.File
	// Test marks _test.go files. Analyzers skip them: the contracts target
	// the production path, and tests legitimately white-box internals.
	Test bool
}

// Package groups the files of one package directory (per package name, so a
// dir holding `foo` and `foo_test` yields two packages).
type Package struct {
	// ImportPath is the module-qualified path, e.g. "loam/internal/cluster".
	ImportPath string
	Name       string
	Dir        string // module-relative slash path ("." for the root)
	Files      []*File
}

// Program is the fully loaded module: every file parsed, every non-test
// package type-checked with go/types (typed.go), and the call graph over the
// result (callgraph.go). Loading fails on a package that does not type-check:
// analyzers resolve names through the checker only, so there is nothing to
// fall back to.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string // absolute module root
	Packages   []*Package

	typed map[*Package]*TypeInfo
	cg    *CallGraph
}

// LoadProgram parses and type-checks every .go file under root (the module
// root, containing go.mod), skipping vendor/testdata/hidden directories.
func LoadProgram(root string) (*Program, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: token.NewFileSet(), ModulePath: modPath, Root: abs}

	type key struct{ dir, name string }
	pkgs := map[key]*Package{}
	var order []key

	walkErr := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != abs && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
				base == "vendor" || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		astf, err := parser.ParseFile(prog.Fset, rel, src, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", rel, err)
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		k := key{dir, astf.Name.Name}
		p := pkgs[k]
		if p == nil {
			imp := modPath
			if dir != "." {
				imp = modPath + "/" + dir
			}
			p = &Package{ImportPath: imp, Name: astf.Name.Name, Dir: dir}
			pkgs[k] = p
			order = append(order, k)
		}
		p.Files = append(p.Files, &File{
			Path: rel,
			AST:  astf,
			Test: strings.HasSuffix(rel, "_test.go"),
		})
		return nil
	})
	if walkErr != nil {
		return nil, walkErr
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].dir != order[j].dir {
			return order[i].dir < order[j].dir
		}
		return order[i].name < order[j].name
	})
	for _, k := range order {
		p := pkgs[k]
		sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Path < p.Files[j].Path })
		prog.Packages = append(prog.Packages, p)
	}
	return prog.finish()
}

// NewProgram assembles a program from in-memory sources — the test fixture
// path. files maps module-relative paths (e.g. "internal/foo/foo.go") to
// source text; the module path is taken as modPath.
func NewProgram(modPath string, files map[string]string) (*Program, error) {
	prog := &Program{Fset: token.NewFileSet(), ModulePath: modPath}
	type key struct{ dir, name string }
	pkgs := map[key]*Package{}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, rel := range paths {
		astf, err := parser.ParseFile(prog.Fset, rel, files[rel], parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", rel, err)
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		k := key{dir, astf.Name.Name}
		p := pkgs[k]
		if p == nil {
			imp := modPath
			if dir != "." {
				imp = modPath + "/" + dir
			}
			p = &Package{ImportPath: imp, Name: astf.Name.Name, Dir: dir}
			pkgs[k] = p
			prog.Packages = append(prog.Packages, p)
		}
		p.Files = append(p.Files, &File{Path: rel, AST: astf, Test: strings.HasSuffix(rel, "_test.go")})
	}
	return prog.finish()
}

// finish runs the typed half of the load over the parsed packages.
func (prog *Program) finish() (*Program, error) {
	if err := prog.typeCheck(); err != nil {
		return nil, err
	}
	prog.cg = buildCallGraph(prog)
	return prog, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// eachFile visits every file of every package.
func (prog *Program) eachFile(fn func(*Package, *File)) {
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			fn(pkg, f)
		}
	}
}

// eachSourceFile visits non-test files only — the surface the contracts
// cover.
func (prog *Program) eachSourceFile(fn func(*Package, *File)) {
	prog.eachFile(func(pkg *Package, f *File) {
		if !f.Test {
			fn(pkg, f)
		}
	})
}

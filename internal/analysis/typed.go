package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// This file is the typed half of the load. The parse (load.go) is the source
// of truth for file discovery and positions; typeCheck then runs the stdlib
// go/types checker over every non-test package, resolving identifiers,
// selections and expression types. Dependency-free: in-module imports are
// checked recursively from our own parsed ASTs, and standard-library imports
// go through go/importer's source importer (which type-checks GOROOT source —
// no build cache, no export data, no third-party loaders).
//
// Type information is load-bearing: an analyzer that needs a type or a callee
// gets it from the checker and nowhere else, so the first type error fails
// the load (loam-vet exits 2) rather than leaving a rule to guess from syntax. `make verify` builds the tree
// before it lints, so a package that does not type-check never gets this far.

// TypeInfo is one package's type-check result.
type TypeInfo struct {
	Pkg *types.Package
	// Info holds the resolved maps (Types, Defs, Uses, Selections,
	// Implicits, Scopes).
	Info *types.Info
}

// stdImporter is the shared source importer for standard-library packages.
// It is constructed once and reused across programs: srcimporter caches the
// packages it has checked, so repeated fixture loads pay the stdlib cost
// only once per process. Guarded by stdImporterMu — srcimporter is not
// documented as concurrency-safe.
var (
	stdImporterMu sync.Mutex
	stdImporter   types.Importer
)

func importStd(path string) (*types.Package, error) {
	stdImporterMu.Lock()
	defer stdImporterMu.Unlock()
	if stdImporter == nil {
		stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	return stdImporter.Import(path)
}

// progImporter resolves imports during type checking: module-internal paths
// recurse into the program's own packages; everything else is assumed to be
// standard library and goes through the shared source importer.
type progImporter struct {
	prog *Program
	// checking guards against import cycles (which parsing alone cannot
	// have ruled out for fixture programs).
	checking map[*Package]bool
}

func (im *progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if im.prog.ownsImportPath(path) {
		pkg := im.prog.packageByImportPath(path)
		if pkg == nil {
			return nil, fmt.Errorf("import %q: no such package in module %s", path, im.prog.ModulePath)
		}
		ti, err := im.prog.checkPackage(pkg, im)
		if err != nil {
			return nil, err
		}
		return ti.Pkg, nil
	}
	return importStd(path)
}

// ownsImportPath reports whether path names a package inside this module.
func (prog *Program) ownsImportPath(path string) bool {
	return path == prog.ModulePath || strings.HasPrefix(path, prog.ModulePath+"/")
}

// packageByImportPath finds the non-test package with the given import path.
// External test packages (name ending in _test) are never import targets.
func (prog *Program) packageByImportPath(path string) *Package {
	for _, pkg := range prog.Packages {
		if pkg.ImportPath == path && !strings.HasSuffix(pkg.Name, "_test") {
			return pkg
		}
	}
	return nil
}

// typeCheck type-checks the non-test files of every package in the program,
// failing on the first type error, import cycle or unresolvable module
// import.
func (prog *Program) typeCheck() error {
	prog.typed = map[*Package]*TypeInfo{}
	im := &progImporter{prog: prog, checking: map[*Package]bool{}}
	for _, pkg := range prog.Packages {
		if _, err := prog.checkPackage(pkg, im); err != nil {
			return err
		}
	}
	return nil
}

// Typed returns the type-check result for pkg. Only non-test files are
// checked, so an external test package (pkg_test) has an empty one.
func (prog *Program) Typed(pkg *Package) *TypeInfo { return prog.typed[pkg] }

// checkPackage type-checks one package (memoized); recursion happens only
// through the importer.
func (prog *Program) checkPackage(pkg *Package, im *progImporter) (*TypeInfo, error) {
	if ti, ok := prog.typed[pkg]; ok {
		return ti, nil
	}
	if im.checking[pkg] {
		return nil, fmt.Errorf("import cycle through %s", pkg.ImportPath)
	}
	im.checking[pkg] = true
	defer delete(im.checking, pkg)

	// Only non-test files: the contracts cover the production surface, and
	// in-package test files may import packages the module does not contain.
	var files []*ast.File
	for _, f := range pkg.Files {
		if !f.Test {
			files = append(files, f.AST)
		}
	}
	ti := &TypeInfo{
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{Importer: im}
	pkgObj, err := conf.Check(pkg.ImportPath, prog.Fset, files, ti.Info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", pkg.ImportPath, err)
	}
	ti.Pkg = pkgObj
	prog.typed[pkg] = ti
	return ti, nil
}

// --- typed helper queries -------------------------------------------------

// namedOf strips pointers and aliases down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v
		case *types.Alias:
			t = types.Unalias(v)
		default:
			return nil
		}
	}
}

// isMutexType reports whether t (possibly behind pointers) is sync.Mutex or
// sync.RWMutex, returning the kind name.
func isMutexType(t types.Type) (kind string, ok bool) {
	n := namedOf(t)
	if n == nil {
		return "", false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex":
		return obj.Name(), true
	}
	return "", false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// recvNamed returns the named receiver type of a *types.Func method, or nil
// for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// lockID identifies one lock: the named type owning the mutex field, plus
// the field's name. Two selector chains reaching the same (type, field) are
// the same lock for ordering purposes, whichever variable holds the struct.
type lockID struct {
	typ   string // fully qualified owner type, e.g. "loam/internal/guard.Guard"
	field string
}

func (l lockID) String() string {
	typ := l.typ
	if i := strings.LastIndex(typ, "/"); i >= 0 {
		typ = typ[i+1:]
	}
	return typ + "." + l.field
}

// lockFieldOf resolves x.mu-style selector expressions to a lock identity
// when the selected field is a sync.Mutex / sync.RWMutex. It also resolves
// promoted fields (embedded mutexes).
func lockFieldOf(info *types.Info, sel *ast.SelectorExpr) (lockID, bool) {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return lockID{}, false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return lockID{}, false
	}
	if _, ok := isMutexType(v.Type()); !ok {
		return lockID{}, false
	}
	owner := namedOf(s.Recv())
	ownerName := "?"
	if owner != nil && owner.Obj() != nil {
		ownerName = owner.Obj().Name()
		if owner.Obj().Pkg() != nil {
			ownerName = owner.Obj().Pkg().Path() + "." + ownerName
		}
	}
	return lockID{typ: ownerName, field: v.Name()}, true
}

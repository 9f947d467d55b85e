package riommu

// An interface-aware unused-declaration check built from the standard
// library alone. It type-checks every package of the module (tests
// included) in one type universe and fails on any package-level func,
// method, type, const or var of non-test code that nothing references
// except its own definition. perfbench/ is a module of its own, so
// `go list ./...` leaves it out.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// listedPackage is the part of `go list -json` output the check reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
}

// standardMethods are called by the standard library through interfaces
// the module never names (fmt.Stringer, error, errors.Unwrap,
// json.Marshaler), so a method with one of these names is always live.
var standardMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true}

// moduleImporter resolves module packages to the ones this check has
// already type-checked and everything else to the toolchain's export data.
type moduleImporter struct {
	module map[string]*types.Package
	std    types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// declaration is one package-level object of non-test code and the span of
// its own definition; references inside the span do not keep it live.
type declaration struct {
	obj      types.Object
	pos, end token.Pos
}

func TestNoUnusedDeclarations(t *testing.T) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []*listedPackage
	byPath := map[string]*listedPackage{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
		byPath[p.ImportPath] = p
	}

	fset := token.NewFileSet()
	parse := func(p *listedPackage, names []string) []*ast.File {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}

	imp := moduleImporter{module: map[string]*types.Package{}, std: importer.ForCompiler(fset, "gc", nil)}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	check := func(path string, files []*ast.File) {
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		imp.module[path] = pkg
	}

	// A package is checked with its in-package test files, after every
	// module package those files import: Go forbids such a test to import a
	// package that depends on the one under test, so this order exists and
	// every importer sees one *types.Package per path.
	nonTest := map[*listedPackage][]*ast.File{}
	done := map[string]bool{}
	var visit func(p *listedPackage)
	visit = func(p *listedPackage) {
		if done[p.ImportPath] {
			return
		}
		done[p.ImportPath] = true
		for _, dep := range append(append([]string(nil), p.Imports...), p.TestImports...) {
			if q := byPath[dep]; q != nil {
				visit(q)
			}
		}
		nonTest[p] = parse(p, p.GoFiles)
		check(p.ImportPath, append(append([]*ast.File(nil), nonTest[p]...), parse(p, p.TestGoFiles)...))
	}
	for _, p := range pkgs {
		visit(p)
	}
	for _, p := range pkgs {
		if len(p.XTestGoFiles) > 0 {
			check(p.ImportPath+"_test", parse(p, p.XTestGoFiles))
		}
	}

	var decls []declaration
	for _, p := range pkgs {
		for _, f := range nonTest[p] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if name == "_" || name == "init" || name == "main" && d.Recv == nil ||
						d.Recv != nil && standardMethods[name] {
						continue
					}
					decls = append(decls, declaration{info.Defs[d.Name], d.Pos(), d.End()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls = append(decls, declaration{info.Defs[s.Name], s.Pos(), s.End()})
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" {
									decls = append(decls, declaration{info.Defs[id], s.Pos(), s.End()})
								}
							}
						}
					}
				}
			}
		}
	}
	span := map[types.Object]declaration{}
	for _, d := range decls {
		span[d.obj] = d
	}

	// live holds every object referenced outside its own definition;
	// calledAbstract groups the interface methods referenced anywhere by
	// the interface that declares them.
	live := map[types.Object]bool{}
	calledAbstract := map[*types.Interface][]*types.Func{}
	seenAbstract := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok && !seenAbstract[o] {
					seenAbstract[o] = true
					calledAbstract[iface] = append(calledAbstract[iface], o)
				}
			}
		case *types.Var:
			obj = o.Origin()
		}
		if d, ok := span[obj]; ok && id.Pos() >= d.pos && id.Pos() < d.end {
			continue
		}
		live[obj] = true
	}
	var named []*types.Named
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
				named = append(named, n)
			}
		}
	}

	// A method is also live when its type implements an interface whose
	// method of that name is called, including methods promoted from an
	// embedded type: the method set lookup returns the declared method.
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		for iface, called := range calledAbstract {
			if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for _, m := range called {
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					live[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		if live[d.obj] {
			continue
		}
		pos := fset.Position(d.obj.Pos())
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		unused = append(unused, fmt.Sprintf("%s: %s", pos, describe(d.obj)))
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d declarations are referenced only by their own definition; delete them:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// describe names obj the way a reader searches for it: pkg.Name for
// package-level objects and (*pkg.T).M for methods.
func describe(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), (*types.Package).Name), f.Name())
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

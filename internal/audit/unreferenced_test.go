// Package audit holds module-wide checks that read the source rather than
// run it.
package audit

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestUnreferencedExports fails on every exported identifier in internal/
// that no non-test file outside its own package references, unless
// testdata/unreferenced_allow.txt names it with a reason. Every package of
// the module counts as a referrer: cmd/, examples/, benchmark/ and the root
// facade. Audited are package-level constants, variables, functions and
// types, and the methods of exported types; struct fields are not (encoding
// reaches them by reflection). A type counts as used when a value of it
// appears outside its package, even unnamed, and every type and method a
// facade alias or signature hands out counts as used. A method also counts
// as used when it implements an interface's method for some module type,
// declared there or promoted through embedding; the methods of an
// interface type count with the interface.
func TestUnreferencedExports(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checks the module and the standard library from source; ci.sh runs it without -race")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	a, err := newAuditor(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.loadModule(); err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(filepath.Join("testdata", "unreferenced_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	matched := map[string]bool{}
	for _, name := range a.unreferenced() {
		if pattern, ok := allowed(allow, name); ok {
			matched[pattern] = true
			continue
		}
		t.Errorf("%s: exported, but no non-test file outside its package references it; delete it, or allowlist it with a reason", name)
	}
	for _, pattern := range allow {
		if !matched[pattern] {
			t.Errorf("allowlist entry %s matches nothing unreferenced; delete the line", pattern)
		}
	}
}

// auditor type-checks every package of the module exactly once, so an
// object seen from an importing package is the very object its own package
// declares. Standard-library imports go to the source importer.
type auditor struct {
	root, module string
	fset         *token.FileSet
	std          types.ImporterFrom
	pkgs         map[string]*types.Package
	infos        map[string]*types.Info
}

func newAuditor(root string) (*auditor, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	fset := token.NewFileSet()
	return &auditor{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*types.Package{},
		infos:  map[string]*types.Info{},
	}, nil
}

func (a *auditor) Import(path string) (*types.Package, error) {
	return a.ImportFrom(path, a.root, 0)
}

func (a *auditor) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == a.module || strings.HasPrefix(path, a.module+"/") {
		return a.load(path)
	}
	return a.std.ImportFrom(path, dir, mode)
}

// loadModule checks every package directory under the module root.
func (a *auditor) loadModule() error {
	return filepath.WalkDir(a.root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != a.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(dir, 0); err != nil || len(bp.GoFiles) == 0 {
			return nil // no package here, or only tests
		}
		rel, err := filepath.Rel(a.root, dir)
		if err != nil {
			return err
		}
		_, err = a.load(strings.TrimSuffix(a.module+"/"+filepath.ToSlash(rel), "/."))
		return err
	})
}

// load parses a module package's non-test files for the default build
// context and type-checks them, once.
func (a *auditor) load(path string) (*types.Package, error) {
	if pkg, ok := a.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(a.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, a.module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: a}).Check(path, a.fset, files, info)
	if err != nil {
		return nil, err
	}
	a.pkgs[path] = pkg
	a.infos[path] = info
	return pkg, nil
}

// unreferenced names, sorted, every audited identifier nothing outside its
// package uses: "transport.Listener.Close" for a method, the package given
// by its path below internal/.
func (a *auditor) unreferenced() []string {
	used := map[types.Object]bool{}
	markType := func(t types.Type, from string) {
		eachNamed(t, func(n *types.Named) {
			if obj := n.Obj(); obj.Pkg() != nil && obj.Pkg().Path() != from {
				used[obj] = true
			}
		})
	}
	for from, info := range a.infos {
		for _, obj := range info.Uses {
			if obj.Pkg() == nil || obj.Pkg().Path() == from {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				used[fn] = true
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					markType(recv.Type(), from)
				}
				continue
			}
			used[obj] = true
		}
		for _, tv := range info.Types {
			markType(tv.Type, from)
		}
	}
	for obj := range a.published() {
		used[obj] = true
	}
	for m := range a.implementing() {
		used[m] = true
	}

	prefix := a.module + "/internal/"
	var out []string
	for path, pkg := range a.pkgs {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		rel := strings.TrimPrefix(path, prefix)
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				out = append(out, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] {
					out = append(out, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// published returns the types an importable package outside internal/ (the
// root facade) hands its callers, through an alias, a signature or a
// variable, together with their exported methods: closed under the
// methods' signatures and the exported fields' types, since a caller of the
// facade reaches all of them without naming the internal package.
func (a *auditor) published() map[types.Object]bool {
	out := map[types.Object]bool{}
	var queue []*types.Named
	walk := func(t types.Type) {
		eachNamed(t, func(n *types.Named) {
			if obj := n.Obj(); obj.Pkg() != nil && !out[obj] {
				out[obj] = true
				queue = append(queue, n)
			}
		})
	}
	for path, pkg := range a.pkgs {
		if pkg.Name() == "main" || strings.HasPrefix(path, a.module+"/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if obj := pkg.Scope().Lookup(name); obj.Exported() {
				walk(obj.Type())
			}
		}
	}
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		walk(named.Underlying())
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out[m] = true
				walk(m.Type())
			}
		}
	}
	return out
}

// eachNamed calls visit with the origin of every named type t is built
// from, looking through pointers, containers, tuples, signatures, exported
// struct fields and interface methods, but not into the named types.
func eachNamed(t types.Type, visit func(*types.Named)) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		visit(t.Origin())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			eachNamed(t.TypeArgs().At(i), visit)
		}
	case *types.Pointer:
		eachNamed(t.Elem(), visit)
	case *types.Slice:
		eachNamed(t.Elem(), visit)
	case *types.Array:
		eachNamed(t.Elem(), visit)
	case *types.Map:
		eachNamed(t.Key(), visit)
		eachNamed(t.Elem(), visit)
	case *types.Chan:
		eachNamed(t.Elem(), visit)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			eachNamed(t.At(i).Type(), visit)
		}
	case *types.Signature:
		eachNamed(t.Params(), visit)
		eachNamed(t.Results(), visit)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if t.Field(i).Exported() {
				eachNamed(t.Field(i).Type(), visit)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			eachNamed(t.Method(i).Type(), visit)
		}
	}
}

// implementing returns every method that implements an interface method
// for some module type: declared on the type, or promoted into it through
// an embedded field.
func (a *auditor) implementing() map[types.Object]bool {
	byMethod := a.interfacesByMethod()
	out := map[types.Object]bool{}
	for _, pkg := range a.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				ms := types.NewMethodSet(t)
				for i := 0; i < ms.Len(); i++ {
					m := ms.At(i).Obj()
					if out[m] {
						continue
					}
					for _, iface := range byMethod[m.Name()] {
						if types.Implements(t, iface) {
							out[m] = true
							break
						}
					}
				}
			}
		}
	}
	return out
}

// interfacesByMethod indexes, by method name, every non-generic interface
// declared in or spelled by a module package, and every named interface of
// the standard-library packages the module reaches.
func (a *auditor) interfacesByMethod() map[string][]*types.Interface {
	seen := map[*types.Interface]bool{}
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if n, ok := types.Unalias(t).(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			byMethod[iface.Method(i).Name()] = append(byMethod[iface.Method(i).Name()], iface)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for path, pkg := range a.pkgs {
		walk(pkg)
		for _, tv := range a.infos[path].Types {
			add(tv.Type)
		}
	}
	return byMethod
}

// readAllowlist reads "pkg.Ident  reason" lines; blank lines and lines
// starting with # are skipped, and a line without a reason is an error.
func readAllowlist(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var patterns []string
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, line, fields[0])
		}
		patterns = append(patterns, fields[0])
	}
	return patterns, sc.Err()
}

// allowed returns the allowlist pattern that covers name: the identical
// name, or one ending in * whose prefix name extends.
func allowed(patterns []string, name string) (string, bool) {
	for _, p := range patterns {
		if p == name || (strings.HasSuffix(p, "*") && strings.HasPrefix(name, strings.TrimSuffix(p, "*"))) {
			return p, true
		}
	}
	return "", false
}

package chronosntp_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed maps each declaration under internal/ that only tests
// reach, but that stays for now, to the ROADMAP item that decides
// whether it becomes reachable or goes.
var testOnlyAllowed = map[string]string{
	"attack.NewNTPMitM":       "authenticated time answers to packets",
	"attack.NTPMitM.Active":   "authenticated time answers to packets",
	"attack.NTPMitM.Announce": "authenticated time answers to packets",
	"attack.NTPMitM.Withdraw": "authenticated time answers to packets",
}

// TestNoTestOnlyDeclarations type-checks the module, bench/chronosbench
// included, and fails on every package-level declaration or method in a
// non-test file under internal/ that nothing but its own package's tests
// uses. A use counts from any non-test file other than the declaration
// itself, or from a test file in another directory. A method that
// implements an interface declared in the module, fmt.Stringer, error,
// json.Marshaler or json.Unmarshaler counts as used. Deleting one
// declaration can leave another unused, so rerun it until it passes.
func TestNoTestOnlyDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	fset := token.NewFileSet()
	dirs := parseModule(t, fset)
	std := importer.ForCompiler(fset, "source", nil)

	// Each directory's non-test files are checked once, imports first;
	// test files import these packages.
	prod := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var check func(dir string) *types.Package
	imp := func(augmented *types.Package) types.Importer {
		return importerFunc(func(p string) (*types.Package, error) {
			if augmented != nil && p == augmented.Path() {
				return augmented, nil
			}
			if dir, ok := strings.CutPrefix(p, "chronosntp/"); ok && dirs[dir] != nil {
				return check(dir), nil
			}
			return std.Import(p)
		})
	}
	check = func(dir string) *types.Package {
		if pkg, ok := prod[dir]; ok {
			if pkg == nil {
				t.Fatalf("import cycle through %s", dir)
			}
			return pkg
		}
		prod[dir] = nil
		info := newInfo()
		pkg, err := (&types.Config{Importer: imp(nil)}).Check(importPath(dir), fset, dirs[dir].files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		prod[dir], infos[dir] = pkg, info
		return pkg
	}
	var names []string
	for dir := range dirs {
		names = append(names, dir)
	}
	sort.Strings(names)

	// The declarations in scope, and the interfaces whose methods count
	// as used wherever a type implements them.
	decls := map[types.Object]*decl{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler"} {
		i := strings.LastIndex(name, ".")
		pkg, err := std.Import(name[:i])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(name[i+1:]).Type().Underlying().(*types.Interface))
	}
	for _, dir := range names {
		if len(dirs[dir].files) == 0 {
			continue
		}
		scope := check(dir).Scope()
		for _, n := range scope.Names() {
			if obj, ok := scope.Lookup(n).(*types.TypeName); ok {
				if i, ok := obj.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, i)
				}
			}
		}
		if strings.HasPrefix(dir, "internal/") {
			for _, f := range dirs[dir].files {
				collectDecls(decls, fset, infos[dir], dir, f)
			}
		}
	}

	used := map[types.Object]bool{}
	markUses := func(dir string, info *types.Info) {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a generic function's instance
			}
			d := decls[obj]
			if d == nil || id.Pos() >= d.start && id.Pos() < d.end {
				continue
			}
			if !strings.HasSuffix(fset.File(id.Pos()).Name(), "_test.go") || d.dir != dir {
				used[obj] = true
			}
		}
	}
	for _, dir := range names {
		if info := infos[dir]; info != nil {
			markUses(dir, info)
		}
		// The in-package test files are checked beside their package's
		// files, the external ones against that package with its
		// in-package tests. Uses in the non-test files were counted above.
		var augmented *types.Package
		if d := dirs[dir]; len(d.tests) > 0 {
			info := newInfo()
			conf := types.Config{Importer: imp(nil), Error: func(error) {}}
			augmented, _ = conf.Check(importPath(dir), fset, append(append([]*ast.File{}, d.files...), d.tests...), info)
			markUses(dir, info)
		}
		if xtests := dirs[dir].xtests; len(xtests) > 0 {
			info := newInfo()
			conf := types.Config{Importer: imp(augmented), Error: func(error) {}}
			conf.Check(importPath(dir)+"_test", fset, xtests, info)
			markUses(dir, info)
		}
	}

	var offenders []string
	allowed := map[string]bool{}
	for obj, d := range decls {
		switch {
		case used[obj] || implementsAny(obj, ifaces):
		case testOnlyAllowed[d.name] != "":
			allowed[d.name] = true
		default:
			offenders = append(offenders, d.pos+" "+d.name)
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("only tests reach %s", o)
	}
	for name := range testOnlyAllowed {
		if !allowed[name] {
			t.Errorf("testOnlyAllowed names %s, which is gone or no longer test-only", name)
		}
	}
}

// srcDir holds one directory's parsed Go files by role.
type srcDir struct {
	files  []*ast.File // non-test files
	tests  []*ast.File // _test.go files of the package itself
	xtests []*ast.File // _test.go files of its external test package
}

// decl is one declaration the scan checks.
type decl struct {
	name       string // package.Name or package.Type.Method
	pos        string // file:line
	dir        string
	start, end token.Pos // the declaration, whose uses of itself do not count
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseModule parses every Go file the default build context selects,
// keyed by slash directory relative to the module root, skipping
// dot-directories and testdata.
func parseModule(t *testing.T, fset *token.FileSet) map[string]*srcDir {
	dirs := map[string]*srcDir{}
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := e.Name(); {
		case e.IsDir() && p != "." && (strings.HasPrefix(name, ".") || name == "testdata"):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(name, ".go"):
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), e.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, filepath.ToSlash(p), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		d := dirs[dir]
		if d == nil {
			d = &srcDir{}
			dirs[dir] = d
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			d.files = append(d.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			d.xtests = append(d.xtests, f)
		default:
			d.tests = append(d.tests, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

func importPath(dir string) string { return path.Join("chronosntp", dir) }

func newInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// collectDecls records the package-level objects and methods f, in
// directory dir, declares.
func collectDecls(decls map[types.Object]*decl, fset *token.FileSet, info *types.Info, dir string, f *ast.File) {
	add := func(id *ast.Ident, node ast.Node) {
		if id.Name == "_" || id.Name == "init" {
			return
		}
		obj := info.Defs[id]
		name := obj.Pkg().Name() + "." + id.Name
		if recv, ok := recvType(obj).(interface{ Obj() *types.TypeName }); ok {
			name = obj.Pkg().Name() + "." + recv.Obj().Name() + "." + id.Name
		}
		pos := fset.Position(id.Pos())
		decls[obj] = &decl{
			name:  name,
			pos:   pos.Filename + ":" + strconv.Itoa(pos.Line),
			dir:   dir,
			start: node.Pos(),
			end:   node.End(),
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, s)
					}
				}
			}
		}
	}
}

// recvType returns the receiver's type, without a pointer, when obj is
// a method, and nil otherwise.
func recvType(obj types.Object) types.Type {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	typ := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		return p.Elem()
	}
	return typ
}

// implementsAny reports whether obj is a method by which its receiver
// type, or a pointer to it, implements one of ifaces.
func implementsAny(obj types.Object, ifaces []*types.Interface) bool {
	typ := recvType(obj)
	if typ == nil {
		return false
	}
	for _, i := range ifaces {
		for j := 0; j < i.NumMethods(); j++ {
			if i.Method(j).Name() == obj.Name() &&
				(types.Implements(typ, i) || types.Implements(types.NewPointer(typ), i)) {
				return true
			}
		}
	}
	return false
}

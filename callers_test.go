package dsm_test

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
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// callerAllowlist names internal/ declarations that no non-test file uses
// yet which must stay, each with its reason. Keys are as unusedCode reports
// them: package.Name or package.Type.Method.
var callerAllowlist = map[string]string{
	"check.History.CheckCounter": "linearizability oracle the apps and locks tests judge counter histories with",
	"check.History.CheckQueue":   "linearizability oracle the apps and locks tests judge queue histories with",
	"check.History.CheckStack":   "linearizability oracle the apps and locks tests judge stack histories with",
	"check.History.Len":          "the apps and locks tests check a history's length before judging it",
	"core.System.CheckCoherence": "coherence invariant the machine and model-checker tests judge the protocol with",
	"dir.ResvState.Holders":      "core's model checker reads the reservation holders to judge LL/SC",
	"sim.Engine.Passed":          "parked spins' virtual-event count, which the benchmark item on ROADMAP gives a caller",
}

// TestProductionCodeHasCallers fails on production code that only tests
// reach: a function, method, constant, package-level variable or type
// declared in a non-test file under internal/, exported or not, that no
// non-test file of the module (cmd/, examples/, the dsm facade and bench/
// included) references outside its own declaration, and a struct field
// declared there without a json tag that no non-test file reads.
// Declarations are type-checked objects, so a test-only method is caught
// even when a used method of another type shares its name.
func TestProductionCodeHasCallers(t *testing.T) {
	start := time.Now()
	unused, err := unusedCode(".", "dsm")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		if callerAllowlist[u.key] == "" {
			what := "has no non-test caller"
			if u.field {
				what = "is read by no non-test file"
			}
			t.Errorf("%s: %s %s", u.pos, u.key, what)
		}
	}
	for key, reason := range callerAllowlist {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if !slices.ContainsFunc(unused, func(u unusedDecl) bool { return u.key == key }) {
			t.Errorf("allowlist entry %s names no unused declaration", key)
		}
	}
	t.Logf("type-checked the module and bench/ in %v", time.Since(start).Round(time.Millisecond))
}

// TestUnusedCodeFixture runs the guard on testdata/unusedcode, whose
// internal/impl holds a method only its test calls that shares its name
// with a used method of another type (Timer.Reset), a method reached only
// through an interface production code uses (Named.Name), a method of a
// type the fixture's facade re-exports by alias (Gauge.Add), an unused
// unexported constant (unusedLimit), and Tally's field cases. Of the
// declarations only the first and the fourth are unused. A guard that
// matched exported names could see neither: the first shares its name
// with Counter.Reset, and the fourth is unexported. Of Tally's fields,
// written is only assigned, incremented and keyed in a composite literal,
// and testRead is read only by a test, so both are unused; read is read,
// Tagged is json-tagged, and Base is embedded and read through a
// promoted field.
func TestUnusedCodeFixture(t *testing.T) {
	unused, err := unusedCode("testdata/unusedcode", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unused {
		got = append(got, u.key)
	}
	want := []string{"impl.Tally.testRead", "impl.Tally.written", "impl.Timer.Reset", "impl.unusedLimit"}
	if !slices.Equal(got, want) {
		t.Fatalf("unused = %q, want %q", got, want)
	}
}

// unusedDecl is one package-level declaration or struct field under
// internal/ that no production code uses.
type unusedDecl struct {
	key   string // package.Name, package.Type.Method or package.Type.field
	pos   token.Position
	field bool
}

// unusedCode type-checks every non-test package under root, whose import
// paths are module plus the directory, and returns the package-level
// functions, methods, constants, variables and types declared under
// internal/ that no non-test file references outside their own
// declaration, and the struct fields declared there without a json tag
// that no non-test file reads (unreadFields), sorted by key. A method also
// counts as used when its receiver type implements an interface that
// holds it and that production code can see (a production package's own,
// an imported package's, an interface-typed expression's, or error), or
// when the root package re-exports its type by alias.
func unusedCode(root, module string) ([]unusedDecl, error) {
	l, err := loadModule(root, module)
	if err != nil {
		return nil, err
	}

	// Declarations under internal/, with the span that counts as their own.
	type span struct{ pos, end token.Pos }
	decls := map[types.Object]span{}
	receivers := map[*ast.Ident]bool{} // a method's receiver type is not a use of it
	for p, files := range l.files {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
					if d.Name.Name != "init" {
						decls[l.info.Defs[d.Name]] = span{d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[l.info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									decls[l.info.Defs[n]] = span{s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		obj = origin(obj)
		if s, ok := decls[obj]; ok && (id.Pos() < s.pos || id.Pos() >= s.end) && !receivers[id] {
			used[obj] = true
		}
	}

	// Methods of the types the root package re-exports by alias.
	if root := l.pkgs[module]; root != nil {
		for _, name := range root.Scope().Names() {
			if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n := receiverNamed(tn.Type()); n != nil {
					for m := range n.Methods() {
						used[m] = true
					}
				}
			}
		}
	}

	// Methods reached through an interface production code can see.
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if i, ok := t.Underlying().(*types.Interface); ok && i.NumMethods() > 0 && !isGeneric(t) {
			ifaces[i] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for _, pkg := range l.pkgs {
		addScope(pkg.Scope())
		for _, imp := range pkg.Imports() {
			addScope(imp.Scope())
		}
	}
	for _, tv := range l.info.Types {
		addIface(tv.Type)
	}
	for obj := range decls {
		f, ok := obj.(*types.Func)
		if !ok || used[f] || f.Signature().Recv() == nil {
			continue
		}
		n := receiverNamed(f.Signature().Recv().Type())
		if n == nil || n.TypeParams().Len() > 0 {
			continue
		}
		for i := range ifaces {
			if holdsMethod(i, f.Name()) && types.Implements(types.NewPointer(n), i) {
				used[f] = true
				break
			}
		}
	}

	unused := unreadFields(l, module)
	for obj := range decls {
		if !used[obj] {
			unused = append(unused, unusedDecl{declKey(obj), l.fset.Position(obj.Pos()), false})
		}
	}
	slices.SortFunc(unused, func(a, b unusedDecl) int { return strings.Compare(a.key, b.key) })
	return unused, nil
}

// unreadFields returns the struct fields declared under internal/ without
// a json tag (encoding/json reads a tagged field by reflection) that no
// non-test file reads. A field is read where its selector or name appears
// anywhere but as the target of an assignment or of ++/--, or as a
// composite literal's key; selecting a promoted field or method reads
// each embedded field on its path. A field is keyed by the type it is
// declared in, or by the variable or function that holds an anonymous
// struct type.
func unreadFields(l *moduleLoader, module string) []unusedDecl {
	fields := map[*types.Var]string{}
	for p, files := range l.files {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		for _, f := range files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				owner := structOwner(stack)
				for _, fd := range st.Fields.List {
					if fd.Tag != nil {
						tag, _ := strconv.Unquote(fd.Tag.Value)
						if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
							continue
						}
					}
					names := fd.Names
					if len(names) == 0 {
						names = []*ast.Ident{embeddedName(fd.Type)}
					}
					for _, name := range names {
						if v, ok := l.info.Defs[name].(*types.Var); ok && name.Name != "_" {
							fields[v] = v.Pkg().Name() + "." + owner + "." + name.Name
						}
					}
				}
				return true
			})
		}
	}

	// Selectors and names in write-only positions.
	written := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
				return true
			})
		}
	}

	read := map[*types.Var]bool{}
	for id, obj := range l.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			read[v.Origin()] = true
		}
	}
	for _, sel := range l.info.Selections {
		t, path := sel.Recv(), sel.Index()
		for _, i := range path[:len(path)-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			read[st.Field(i).Origin()] = true
			t = st.Field(i).Type()
		}
	}

	var unread []unusedDecl
	for v, key := range fields {
		if !read[v] {
			unread = append(unread, unusedDecl{key, l.fset.Position(v.Pos()), true})
		}
	}
	return unread
}

// structOwner names the declaration that holds the innermost struct type
// on stack: the enclosing type, else the variable or function.
func structOwner(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.TypeSpec:
			return n.Name.Name
		case *ast.ValueSpec:
			return n.Names[0].Name
		case *ast.FuncDecl:
			return n.Name.Name
		}
	}
	return "struct"
}

// embeddedName returns the identifier an embedded field's type expression
// declares the field by: T in T, *T, pkg.T and T[A].
func embeddedName(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

// origin maps an instantiated generic function, method or variable to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverNamed returns the named type t or *t denotes, or nil.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// isGeneric reports whether t is a generic named type or an instance of one.
func isGeneric(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// holdsMethod reports whether i's method set has a method called name.
func holdsMethod(i *types.Interface, name string) bool {
	for m := range i.Methods() {
		if m.Name() == name {
			return true
		}
	}
	return false
}

// declKey names obj as package.Name, or package.Type.Method for a method.
func declKey(obj types.Object) string {
	key := obj.Pkg().Name() + "."
	if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
		key += receiverNamed(f.Signature().Recv().Type()).Obj().Name() + "."
	}
	return key + obj.Name()
}

// moduleLoader parses and type-checks a module's non-test packages, each
// once, importing the standard library from its export data.
type moduleLoader struct {
	fset  *token.FileSet
	dirs  map[string]*build.Package // by import path
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info // shared by every package
	std   types.Importer
}

// loadModule type-checks every directory under root that holds non-test Go
// files for the host platform, skipping testdata and dot directories.
func loadModule(root, module string) (*moduleLoader, error) {
	l := &moduleLoader{
		fset:  token.NewFileSet(),
		dirs:  map[string]*build.Package{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		std: importer.Default(),
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		l.dirs[path.Join(module, filepath.ToSlash(rel))] = bp
		return err
	})
	if err != nil {
		return nil, err
	}
	for p := range l.dirs {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Import returns the type-checked package at path, checking a module
// package on first use.
func (l *moduleLoader) Import(p string) (*types.Package, error) {
	bp, ok := l.dirs[p]
	if !ok {
		return l.std.Import(p)
	}
	if pkg := l.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p], l.files[p] = pkg, files
	return pkg, nil
}

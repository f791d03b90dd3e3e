package dsm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist names exported internal functions and methods that no
// non-test file calls by name yet which must stay, each with its reason.
var exportAllowlist = map[string]string{
	"Holders":        "core's model checker reads the reservation holders",
	"CheckCoherence": "coherence invariant the protocol tests judge with",
	"CheckCounter":   "linearizability oracle the counter tests judge with",
	"CheckQueue":     "linearizability oracle the queue tests judge with",
	"CheckStack":     "linearizability oracle the stack tests judge with",
	"String":         "reached through fmt.Stringer",
	"Error":          "reached through the error interface",
	"MarshalJSON":    "reached through json.Marshaler",
	"UnmarshalJSON":  "reached through json.Unmarshaler",
	"ServeHTTP":      "reached through http.Handler",
}

// TestInternalExportsHaveCallers fails on production code that only tests
// call: an exported function or method declared in a non-test file under
// internal/ whose name no non-test Go file in the tree (cmd/, examples/ and
// bench/ included) uses. Declarations are keyed by position, so each of two
// same-named methods is checked.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[token.Pos]string{} // exported internal funcs, by position
	used := map[string]bool{}       // names referenced outside their declaration
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if internal && n.Name.IsExported() {
					decls[n.Name.Pos()] = n.Name.Name
				}
			case *ast.Ident:
				if _, ok := decls[n.Pos()]; !ok {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for pos, name := range decls {
		if !used[name] && exportAllowlist[name] == "" {
			orphans = append(orphans, fset.Position(pos).String()+": "+name)
		}
	}
	slices.Sort(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no non-test caller", o)
	}
}

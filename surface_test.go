package dkf_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// surfaceAllowlist names the exported identifiers under internal/ that may
// have no non-test caller, keyed "pkg.Name" or "pkg.Recv.Name" (receiver
// without its pointer). Each entry says why it stays.
var surfaceAllowlist = map[string]string{
	// Oracles the root tests read through the facade: Session.Close's test
	// checks that the device pools are empty, and the timeline tests
	// reconcile each rank's per-category sums with its trace.Breakdown.
	"gpu.Device.AllocatedBytes": "session_close_test.go leak oracle",
	"gpu.Device.PooledBuffers":  "session_close_test.go leak oracle",
	"timeline.Recorder.Sums":    "timeline_test.go reconciliation oracle",
	// Oracles another package's tests read: an export_test.go is compiled
	// only into its own package's tests, so these stay exported.
	"datatype.Canonical.Hash":   "internal/conformance canonical tests",
	"datatype.Canonical.Expand": "internal/conformance canonical tests",
	"payload.Content.SpanCount": "internal/gpu pool tests",
}

// surfaceAllowPkgs are internal/ packages exempt as a whole.
var surfaceAllowPkgs = map[string]string{
	// Test support by design: the differential runner, scenario generator
	// and determinism oracle exist for tests and fuzz targets.
	"conformance": "test support",
}

// surfaceAllowNames are method names exempt in every package.
var surfaceAllowNames = map[string]string{
	// Called by errors.Is/As through an interface the standard library
	// declares, so no file in the repository names it.
	"Unwrap": "called by errors",
}

// exportedDecl is one exported top-level declaration or method under
// internal/.
type exportedDecl struct {
	key string // pkg.Name or pkg.Recv.Name
	pos token.Position
}

// exportedWithoutCallers parses every non-test .go file under root, except
// under testdata/ and hidden directories, and returns the exported top-level
// declarations and methods of packages under root/internal/ whose name
// appears in no non-test file other than at its own declaration (a type's
// method receivers count as part of its declaration). Matching
// is by name, so an interface method called through its interface counts
// as used, and a dead method that shares a name with a live one is not
// caught.
func exportedWithoutCallers(root string) ([]exportedDecl, error) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []exportedDecl
	declIdents := map[*ast.Ident]bool{}
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(path, internal) {
			pkg := f.Name.Name
			add := func(id *ast.Ident, key string) {
				if id.IsExported() {
					declIdents[id] = true
					decls = append(decls, exportedDecl{key: pkg + "." + key, pos: fset.Position(id.Pos())})
				}
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						add(decl.Name, decl.Name.Name)
					} else if recv := recvIdent(decl.Recv.List[0].Type); recv != nil && recv.IsExported() {
						declIdents[recv] = true // a type's methods do not use it
						add(decl.Name, recv.Name+"."+decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec.Name.Name)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(id, id.Name)
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []exportedDecl
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if uses[name] == 0 {
			dead = append(dead, d)
		}
	}
	return dead, nil
}

// recvIdent is the type name of a method receiver, without pointer or
// type parameters.
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
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

// TestExportedNamesHaveCallers fails when an exported name under internal/
// is called only by tests: such a name is API nobody uses, and a test-only
// oracle belongs in its package's export_test.go.
func TestExportedNamesHaveCallers(t *testing.T) {
	start := time.Now()
	dead, err := exportedWithoutCallers(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		parts := strings.Split(d.key, ".")
		if surfaceAllowPkgs[parts[0]] != "" || surfaceAllowNames[parts[len(parts)-1]] != "" || surfaceAllowlist[d.key] != "" {
			continue
		}
		t.Errorf("%s:%d: %s has no caller outside tests", d.pos.Filename, d.pos.Line, d.key)
	}
	t.Logf("scanned in %v", time.Since(start))
}

// TestExportedNamesScanFixture runs the scan over a fixture holding a func
// nothing calls, a func only a test calls, and an interface method called
// through its interface: exactly the first two are reported.
func TestExportedNamesScanFixture(t *testing.T) {
	dead, err := exportedWithoutCallers(filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, fmt.Sprintf("%s %s:%d", d.key, filepath.ToSlash(d.pos.Filename), d.pos.Line))
	}
	sort.Strings(got)
	want := []string{
		"widget.Orphan testdata/surface/internal/widget/widget.go:16",
		"widget.TestOnly testdata/surface/internal/widget/widget.go:19",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reported %q, want %q", got, want)
	}
}

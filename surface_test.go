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
	"strconv"
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
	err := parseNonTestFiles(fset, root, func(path string, f *ast.File) {
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

// parseNonTestFiles parses every non-test .go file under root, except under
// testdata/ and hidden directories, and calls fn with its path and syntax.
func parseNonTestFiles(fset *token.FileSet, root string, fn func(path string, f *ast.File)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		fn(path, f)
		return nil
	})
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

// payloadModeOwners are the directories, relative to the module root,
// whose non-test files may branch on a buffer's payload mode by selecting
// Lazy or IsLazy: internal/gpu decides the mode, internal/payload is the
// lazy representation, and cmd/ddtperf builds lazy buffers itself.
var payloadModeOwners = []string{"internal/gpu", "internal/payload", "cmd/ddtperf"}

// payloadImporters may import internal/payload: the mode owners, and
// internal/workload, whose FillPattern writes the payload fill stream.
var payloadImporters = append([]string{"internal/workload"}, payloadModeOwners...)

// payloadModeLeaks parses every non-test .go file under root (see
// parseNonTestFiles) and reports, as "file:line: what", each import of
// module's internal/payload outside payloadImporters and each selection of
// Lazy or IsLazy outside payloadModeOwners.
func payloadModeLeaks(root, module string) ([]string, error) {
	fset := token.NewFileSet()
	within := func(path string, dirs []string) bool {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return false
		}
		rel = filepath.ToSlash(rel)
		for _, d := range dirs {
			if strings.HasPrefix(rel, d+"/") {
				return true
			}
		}
		return false
	}
	var leaks []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		leaks = append(leaks, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, what))
	}
	err := parseNonTestFiles(fset, root, func(path string, f *ast.File) {
		if !within(path, payloadImporters) {
			for _, imp := range f.Imports {
				if imp.Path.Value == strconv.Quote(module+"/internal/payload") {
					report(imp.Pos(), "imports "+imp.Path.Value)
				}
			}
		}
		if within(path, payloadModeOwners) {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lazy" || sel.Sel.Name == "IsLazy") {
				report(sel.Sel.Pos(), "selects ."+sel.Sel.Name)
			}
			return true
		})
	})
	return leaks, err
}

// TestPayloadModeStaysInGPU fails when a non-test file outside the mode's
// owners branches on exact vs lazy content or reaches for the lazy
// representation: that decision is internal/gpu's, made through its
// mode-independent verbs (CopyLayout, Snapshot, Equal, ...).
func TestPayloadModeStaysInGPU(t *testing.T) {
	leaks, err := payloadModeLeaks(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaks {
		t.Error(l)
	}
}

// TestPayloadModeScanFixture runs the payload-mode scan over the fixture
// module: its gpu package may import payload and select Lazy, its workload
// package may only import payload, and its ckpt package may do neither.
func TestPayloadModeScanFixture(t *testing.T) {
	root := filepath.Join("testdata", "surface")
	got, err := payloadModeLeaks(root, "surface")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{
		`testdata/surface/internal/ckpt/ckpt.go:4: imports "surface/internal/payload"`,
		"testdata/surface/internal/ckpt/ckpt.go:6: selects .IsLazy",
		"testdata/surface/internal/ckpt/ckpt.go:6: selects .Lazy",
		"testdata/surface/internal/workload/workload.go:6: selects .Lazy",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reported %q, want %q", got, want)
	}
}

// chargeBypasses parses every non-test .go file under root (see
// parseNonTestFiles) and reports, as "file:line: what", each call that
// charges virtual time around module's timeline.Ledger: a Span given a cost
// other than timeline.CostNone outside internal/timeline, or an Add to a
// breakdown outside internal/timeline and internal/trace. Matching is by
// shape, without types: a breakdown Add is a two-argument Add whose
// receiver is a field or variable named Trace or Breakdown, or whose first
// argument is built from package trace.
func chargeBypasses(root, module string) ([]string, error) {
	fset := token.NewFileSet()
	var found []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		found = append(found, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, what))
	}
	err := parseNonTestFiles(fset, root, func(path string, f *ast.File) {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		inTimeline := dir == "internal/timeline"
		inTrace := dir == "internal/trace"
		timelineName := importName(f, module+"/internal/timeline")
		traceName := importName(f, module+"/internal/trace")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Span":
				if !inTimeline && len(call.Args) >= 2 && pkgSel(call.Args[1], timelineName) != "CostNone" {
					report(sel.Sel.Pos(), "passes Span a cost")
				}
			case "Add":
				if inTimeline || inTrace || len(call.Args) != 2 {
					return true
				}
				arg := call.Args[0]
				if conv, ok := arg.(*ast.CallExpr); ok {
					arg = conv.Fun // trace.Category(i)
				}
				if recv := lastName(sel.X); recv == "Trace" || recv == "Breakdown" || pkgSel(arg, traceName) != "" {
					report(sel.Sel.Pos(), "adds to a Breakdown")
				}
			}
			return true
		})
	})
	return found, err
}

// importName is the name f refers to the package at path by, or "" when f
// does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != strconv.Quote(path) {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndexByte(path, '/')+1:]
	}
	return ""
}

// pkgSel is Name when e is pkg.Name, else "".
func pkgSel(e ast.Expr, pkg string) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || pkg == "" {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
		return sel.Sel.Name
	}
	return ""
}

// lastName is the final identifier of a name or selector chain (Trace in
// r.Trace), or "".
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// TestChargePathIsSingle fails when a non-test file charges virtual time
// other than through a rank's timeline.Ledger: a cost-carrying Span or a
// bare Breakdown Add accrues to one of the two views only, and the
// breakdown and the timeline stop reconciling.
func TestChargePathIsSingle(t *testing.T) {
	found, err := chargeBypasses(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}

// TestChargePathScanFixture runs the charge-path scan over the fixture
// module: its timeline package may give spans a cost and add to a
// breakdown, its trace package may only add, and its coll package may only
// call the ledger and record cost-free spans.
func TestChargePathScanFixture(t *testing.T) {
	got, err := chargeBypasses(filepath.Join("testdata", "surface"), "surface")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{
		"testdata/surface/internal/coll/coll.go:14: passes Span a cost",
		"testdata/surface/internal/coll/coll.go:15: adds to a Breakdown",
		"testdata/surface/internal/coll/coll.go:16: adds to a Breakdown",
		"testdata/surface/internal/trace/trace.go:11: passes Span a cost",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reported %q, want %q", got, want)
	}
}
